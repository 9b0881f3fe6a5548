"""Serving a deployed protected session from worker processes.

:class:`SessionServer` admits asyncio request traffic and runs each
request's protected forward pass in a worker process.  A pass is
mostly NumPy dispatch that holds the GIL, so passes on threads of one
process run one at a time; passes in separate processes run in
parallel.

Each worker is a :class:`~repro.faults.parallel.Worker`, the process
and pipe the sharded campaign engine runs on: one process forked from
the session and one :func:`~multiprocessing.Pipe` to the server.  The
workers fork when the server is built and inherit the session: nothing
is pickled or copied, and each worker keeps its own prepared state
warm across the requests it serves.  A worker loops receive → call →
reply.  :meth:`SessionServer.handle` takes an idle worker (waiting
while all are busy), sends ``(x, faults, session.recovery)`` — the
recovery policy as the session holds it when the request is made, not
as the worker inherited it — and awaits the reply on the running event
loop, which watches the pipe itself (``loop.add_reader``, so a
selector-based loop): no thread relays between the loop and the
worker.  The served :class:`~repro.nn.InferenceResult` carries, per
layer outcome, the verdict, the injected specs, the recovery counts and
the FP16 output ``c``; the padded accumulator stays in the worker
(:meth:`~repro.abft.base.ExecutionOutcome.detach`).

A pass that raises in the worker raises the same exception type from
``handle``.  A worker whose pipe reaches end-of-file fails only the
request it was serving, with :class:`~repro.errors.ServingError`, and a
fresh fork replaces it; a worker found dead when picked is replaced
before the request is sent.  A ``handle`` cancelled with its request in
flight leaves the reply owed: the worker's next taker reads and
discards it first, so no reply reaches another request.

Served passes never touch the parent's session: its prepared cache,
weight cache and operand record see none of them.  A caller that wants
``session.campaign`` to attack the GEMMs it serves runs one pass
in-process first.

:func:`serve_session` is the synchronous wrapper (benchmarks, examples,
smoke tests): fire a fixed number of requests at a session under a
concurrency cap and report throughput and tail latency.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..api.session import ProtectedSession
from ..errors import ConfigurationError, ServingError
from ..faults.model import FaultSpec
from ..faults.parallel import Worker
from ..faults.recovery import RecoveryPolicy
from ..nn.inference import InferenceResult


def _serve_in_worker(
    session: ProtectedSession,
    x: np.ndarray | None,
    faults: "Mapping[str, Sequence[FaultSpec]] | None",
    recovery: RecoveryPolicy | None,
) -> InferenceResult:
    """One protected pass in a worker, under the caller's current policy.

    Returns the result with every layer outcome detached: the FP16
    output ``c`` crosses back, the padded accumulator does not.
    """
    session.recovery = recovery
    result = session.run(x, faults=faults)
    return InferenceResult(
        output=result.output,
        layer_outcomes=[
            replace(rec, outcome=rec.outcome.detach())
            for rec in result.layer_outcomes
        ],
    )


def _shut_down(
    owner_pid: int,
    lock: threading.Lock,
    workers: list[Worker],
    idle: list[Worker],
) -> None:
    """Stop every worker of one server.

    Runs once per server — from :meth:`SessionServer.close`, the
    server's collection, or interpreter exit — and only in the process
    that forked the workers: a worker that collects its inherited copy
    of the server must not stop its siblings.
    """
    if os.getpid() != owner_pid:
        return
    with lock:
        idle_now = list(idle)
        busy = [worker for worker in workers if worker not in idle_now]
        workers.clear()
        idle.clear()
    for worker in idle_now:
        worker.stop()
    for worker in busy:
        worker.stop(close_pipe=False)


async def _readable(
    loop: asyncio.AbstractEventLoop, conn: Connection
) -> None:
    """Wait on ``loop`` until ``conn`` has a reply, or end-of-file, to read."""
    fd = conn.fileno()
    ready = loop.create_future()

    def wake() -> None:
        loop.remove_reader(fd)
        if not ready.done():
            ready.set_result(None)

    loop.add_reader(fd, wake)
    try:
        await ready
    finally:
        loop.remove_reader(fd)


def _percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """The q-th percentile of a latency sample, in milliseconds."""
    if not latencies_s:
        raise ConfigurationError("no latencies recorded; serve first")
    ordered = sorted(latencies_s)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index] * 1e3


@dataclass(frozen=True)
class ServingReport:
    """What one serving run measured.

    Attributes
    ----------
    requests:
        Completed request count.
    concurrency:
        Admission cap the run was driven under.
    total_s:
        Wall-clock time from first admission to last completion.
    requests_per_s:
        ``requests / total_s``.
    p50_ms, p99_ms:
        Median and tail per-request latency (admission to result).
    detected_requests:
        Requests whose pass flagged at least one layer (``faults=``
        traffic; 0 for clean serving).
    """

    requests: int
    concurrency: int
    total_s: float
    requests_per_s: float
    p50_ms: float
    p99_ms: float
    detected_requests: int = 0

    def render(self) -> str:
        """One-line summary for logs and benchmark output."""
        return (
            f"{self.requests} requests @ concurrency {self.concurrency}: "
            f"{self.requests_per_s:.1f} req/s, "
            f"p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms"
            + (
                f", {self.detected_requests} detected"
                if self.detected_requests
                else ""
            )
        )


class SessionServer:
    """Serve concurrent requests through one session on worker processes.

    Parameters
    ----------
    session:
        The deployed session every request runs through.  Layer-GEMM
        sessions take ``None`` requests; numeric sessions take input
        activations.
    max_workers:
        Worker processes — how many protected passes run at once.  The
        asyncio side may admit more in-flight requests than this; the
        rest wait for an idle worker.

    The workers fork when the server is built and hold the session as
    it was then (see the module docstring), so build the server while
    no other thread is inside the session: a lock held across the fork
    stays held in every worker.  One server may serve from several
    event loops, in turn or on several threads.  A worker that dies
    fails the request it was serving with
    :class:`~repro.errors.ServingError` and is replaced by a fresh
    fork.  Use the server as a context manager (or call :meth:`close`)
    so the workers are joined deterministically; a server dropped
    without either stops its workers when collected or at interpreter
    exit.

    Example
    -------
    >>> import repro
    >>> from repro.fleet import SessionServer
    >>> session = repro.deploy("mlp_bottom", "T4", batch=32)
    >>> with SessionServer(session, max_workers=2) as server:
    ...     report = server.serve_blocking(8, concurrency=4)
    >>> report.requests
    8
    """

    def __init__(
        self, session: ProtectedSession, *, max_workers: int = 4
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.session = session
        self.max_workers = max_workers
        self._latencies_s: list[float] = []
        self._detected = 0
        # Every live worker, the idle ones among them, and the requests
        # waiting for one (each a future on its own event loop).
        self._workers: list[Worker] = []
        self._idle: list[Worker] = []
        self._waiters: deque[asyncio.Future] = deque()
        self._closed = False
        # Guards all of the above: handle() may run on several event
        # loops in several threads.
        self._lock = threading.Lock()
        self._finalizer = weakref.finalize(
            self, _shut_down, os.getpid(), self._lock, self._workers,
            self._idle,
        )
        try:
            for _ in range(max_workers):
                worker = Worker.fork(session)
                self._workers.append(worker)
                self._idle.append(worker)
        except BaseException:
            self._finalizer()
            raise

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop the worker processes (idempotent).

        A request waiting for a worker or in flight, and every later
        one, raises :class:`~repro.errors.ServingError`.
        """
        with self._lock:
            self._closed = True
            waiters = list(self._waiters)
            self._waiters.clear()
        for waiter in waiters:
            self._hand_over_soon(waiter, None)
        self._finalizer()

    def __enter__(self) -> "SessionServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- workers --------------------------------------------------------
    def _hand_over_soon(
        self, waiter: asyncio.Future, worker: Worker | None
    ) -> bool:
        """Schedule ``worker`` into ``waiter`` on the waiter's own loop.

        ``None`` tells the waiter to look again (the server closed).
        False when that loop has closed, so nobody waits there any more.
        """
        try:
            waiter.get_loop().call_soon_threadsafe(
                self._hand_over, waiter, worker
            )
        except RuntimeError:  # the waiter's event loop is closed
            return False
        return True

    def _hand_over(
        self, waiter: asyncio.Future, worker: Worker | None
    ) -> None:
        """On the waiter's loop: deliver ``worker``, or pass it on."""
        if not waiter.done():
            waiter.set_result(worker)
        elif worker is not None:  # the waiter was cancelled meanwhile
            self._release(worker)

    def _release(self, worker: Worker, *, owed: int = 0) -> None:
        """Give a worker back: to the longest waiter, else to the idle set."""
        with self._lock:
            worker.owed += owed
            if not self._closed:
                while self._waiters:
                    if self._hand_over_soon(self._waiters.popleft(), worker):
                        return
                self._idle.append(worker)
                return
        worker.stop()

    def _replace(self, dead: Worker) -> Worker | None:
        """Fork a worker in place of a dead one; ``None`` once closed.

        The replacement is the caller's to use or release.  If the fork
        fails, the dead worker is released so its next taker retries.
        """
        try:
            with self._lock:
                fresh = None
                if not self._closed:
                    fresh = Worker.fork(self.session)
                    self._workers[self._workers.index(dead)] = fresh
        except BaseException:
            self._release(dead)
            raise
        dead.stop()
        return fresh

    async def _take(self, loop: asyncio.AbstractEventLoop) -> Worker:
        """An idle worker, waiting on ``loop`` while all are busy."""
        while True:
            with self._lock:
                if self._closed:
                    raise ServingError("the server is closed")
                if self._idle:
                    return self._idle.pop()
                waiter = loop.create_future()
                self._waiters.append(waiter)
            try:
                worker = await waiter
            except asyncio.CancelledError:
                with self._lock:
                    if waiter in self._waiters:
                        self._waiters.remove(waiter)
                handed = waiter.done() and not waiter.cancelled()
                if handed and waiter.result() is not None:
                    self._release(waiter.result())
                raise
            if worker is not None:
                return worker

    async def _acquire(self, loop: asyncio.AbstractEventLoop) -> Worker:
        """A live worker that owes no reply, ready for one request."""
        worker = await self._take(loop)
        while True:
            alive = worker.process.is_alive()
            if alive and not worker.owed:
                return worker
            if alive:  # drain a cancelled request's reply first
                try:
                    await _readable(loop, worker.conn)
                    worker.conn.recv_bytes()
                except (EOFError, OSError):
                    alive = False
                except asyncio.CancelledError:
                    self._release(worker)
                    raise
                else:
                    worker.owed -= 1
            if not alive:
                replacement = self._replace(worker)
                if replacement is None:
                    raise ServingError("the server is closed")
                worker = replacement

    async def _call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(session, *args)`` in a worker: its value, or its exception."""
        loop = asyncio.get_running_loop()
        worker = await self._acquire(loop)
        sent = False
        try:
            worker.send(fn, *args)
            sent = True
            await _readable(loop, worker.conn)
            reply = worker.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            replacement = self._replace(worker)
            if replacement is None:
                raise ServingError(
                    "the server was closed with this request in flight"
                ) from exc
            self._release(replacement)
            raise ServingError(
                "a serving worker process died with this request in flight"
            ) from exc
        except BaseException:
            # Cancelled after the send: the reply is still owed.
            self._release(worker, owed=int(sent))
            raise
        self._release(worker)
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        return value

    # -- serving --------------------------------------------------------
    async def handle(
        self,
        x: np.ndarray | None = None,
        *,
        faults: "Mapping[str, Sequence[FaultSpec]] | None" = None,
    ) -> InferenceResult:
        """Serve one request: a protected pass in a worker process.

        An exception the pass raises in the worker is raised here with
        its own type.  A worker that dies with the request in flight,
        or a closed server, raises :class:`~repro.errors.ServingError`.
        """
        start = time.perf_counter()
        result = await self._call(
            _serve_in_worker, x, faults, self.session.recovery
        )
        elapsed = time.perf_counter() - start
        with self._lock:
            self._latencies_s.append(elapsed)
            if result.detected:
                self._detected += 1
        return result

    async def serve(
        self,
        requests: "int | Iterable[np.ndarray | None]",
        *,
        concurrency: int = 8,
    ) -> ServingReport:
        """Drive a batch of requests under an admission cap.

        ``requests`` is either a count (that many empty requests — the
        layer-GEMM realization) or an iterable of per-request inputs.
        At most ``concurrency`` requests are in flight at once; the
        report covers exactly this batch.
        """
        if concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        inputs: list[np.ndarray | None]
        if isinstance(requests, int):
            if requests < 1:
                raise ConfigurationError(
                    f"request count must be >= 1, got {requests}"
                )
            inputs = [None] * requests
        else:
            inputs = list(requests)
            if not inputs:
                raise ConfigurationError("no requests to serve")
        gate = asyncio.Semaphore(concurrency)

        async def admit(x: np.ndarray | None) -> InferenceResult:
            async with gate:
                return await self.handle(x)

        with self._lock:
            first = len(self._latencies_s)
            detected_before = self._detected
        start = time.perf_counter()
        await asyncio.gather(*(admit(x) for x in inputs))
        total_s = time.perf_counter() - start
        with self._lock:
            batch = self._latencies_s[first:]
            detected = self._detected - detected_before
        return ServingReport(
            requests=len(inputs),
            concurrency=concurrency,
            total_s=total_s,
            requests_per_s=len(inputs) / total_s if total_s > 0 else 0.0,
            p50_ms=_percentile_ms(batch, 0.50),
            p99_ms=_percentile_ms(batch, 0.99),
            detected_requests=detected,
        )

    def serve_blocking(
        self,
        requests: "int | Iterable[np.ndarray | None]",
        *,
        concurrency: int = 8,
    ) -> ServingReport:
        """:meth:`serve` from synchronous code (owns the event loop)."""
        return asyncio.run(self.serve(requests, concurrency=concurrency))


def serve_session(
    session: ProtectedSession,
    requests: "int | Iterable[np.ndarray | None]" = 100,
    *,
    concurrency: int = 8,
    max_workers: int = 4,
) -> ServingReport:
    """Fire a request batch at a session and report the measurements.

    The one-call form of :class:`SessionServer` for benchmarks and
    smoke tests: builds the server, serves the batch under
    ``concurrency``, joins the workers, returns the report.
    """
    with SessionServer(session, max_workers=max_workers) as server:
        return server.serve_blocking(requests, concurrency=concurrency)

"""Serving a deployed protected session from worker processes.

:class:`SessionServer` admits asyncio request traffic and runs each
request's protected forward pass in a worker process.  A pass is
mostly NumPy dispatch that holds the GIL, so passes on threads of one
process run one at a time; passes in separate processes run in
parallel.

The workers are one fork-context
:class:`~concurrent.futures.ProcessPoolExecutor` per server, built from
the same start method as the sharded campaign engine's pool
(:mod:`repro.faults.parallel`).  They fork on the server's first
request and receive the session through the pool initializer: a forked
child inherits it, so nothing is pickled, exported to shared memory or
copied, and each worker keeps its own prepared state warm across the
requests it serves.  A request ships ``(x, faults, session.recovery)``
— the recovery policy as the session holds it when the request is
made, not as the worker inherited it.  The served
:class:`~repro.nn.InferenceResult` carries, per layer outcome, the
verdict, the injected specs, the recovery counts and the FP16 output
``c``; the padded accumulator stays in the worker
(:meth:`~repro.abft.base.ExecutionOutcome.detach`).

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
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..api.session import ProtectedSession
from ..errors import ConfigurationError, ServingError
from ..faults.model import FaultSpec
from ..faults.parallel import _mp_context
from ..faults.recovery import RecoveryPolicy
from ..nn.inference import InferenceResult

#: The session a worker process serves, set by the pool initializer.
#: Only worker processes ever assign it; the serving process never does.
_worker_session: ProtectedSession | None = None


def _adopt_session(session: ProtectedSession) -> None:
    """Pool initializer: the session this worker inherited at fork."""
    global _worker_session
    _worker_session = session


def _serve_in_worker(
    x: np.ndarray | None,
    faults: "Mapping[str, Sequence[FaultSpec]] | None",
    recovery: RecoveryPolicy | None,
) -> InferenceResult:
    """One protected pass in a worker, under the caller's current policy.

    Returns the result with every layer outcome detached: the FP16
    output ``c`` crosses back, the padded accumulator does not.
    """
    session = _worker_session
    session.recovery = recovery
    result = session.run(x, faults=faults)
    return InferenceResult(
        output=result.output,
        layer_outcomes=[
            replace(rec, outcome=rec.outcome.detach())
            for rec in result.layer_outcomes
        ],
    )


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
        pool is the execution ceiling.

    The workers fork on the first request and hold the session as it
    was then (see the module docstring), so make that request while no
    other thread is inside the session: a lock held across the fork
    stays held in every worker.  A worker that dies fails the requests
    in flight with :class:`~repro.errors.ServingError`, and the next
    request starts a fresh pool.  Use the server as a context
    manager (or call :meth:`close`) so the workers are joined
    deterministically; a server dropped without either is shut down
    with its pool when collected or at interpreter exit.

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
        self._pool = self._new_pool()
        self._latencies_s: list[float] = []
        self._detected = 0
        # Guards the latency/detection tallies and the pool swap after
        # a worker death: handle() may run on several event loops.
        self._lock = threading.Lock()

    def _new_pool(self) -> ProcessPoolExecutor:
        """A pool whose workers fork on first use, holding the session."""
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=_mp_context(),
            initializer=_adopt_session,
            initargs=(self.session,),
        )

    def _replace_broken(self, broken: ProcessPoolExecutor) -> None:
        """Swap a broken pool for a fresh one (once per breakage)."""
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = self._new_pool()
        # The broken pool's workers are already terminated; joining
        # them here means the next fork sees no leftover pool thread.
        broken.shutdown(wait=True)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Join the worker processes (idempotent)."""
        with self._lock:
            pool = self._pool
        pool.shutdown(wait=True)

    def __enter__(self) -> "SessionServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- serving --------------------------------------------------------
    async def handle(
        self,
        x: np.ndarray | None = None,
        *,
        faults: "Mapping[str, Sequence[FaultSpec]] | None" = None,
    ) -> InferenceResult:
        """Serve one request: a protected pass in a worker process.

        An exception the pass raises in the worker is raised here with
        its own type.  A worker that dies raises
        :class:`~repro.errors.ServingError`.
        """
        loop = asyncio.get_running_loop()
        with self._lock:
            pool = self._pool
        start = time.perf_counter()
        try:
            result = await loop.run_in_executor(
                pool, _serve_in_worker, x, faults, self.session.recovery
            )
        except BrokenProcessPool as exc:
            self._replace_broken(pool)
            raise ServingError(
                f"a serving worker process died with this request in "
                f"flight: {exc}"
            ) from exc
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

"""Forked worker processes: sharded campaigns and the serving workers.

The prepared struck-check engine sustains tens of thousands of trials
per second — on one core.  This module scales campaigns across cores by
sharding the *trials* of one run over a :class:`ShardPool` of
:class:`Worker` processes, and :mod:`repro.fleet.serving` serves
requests from the same workers.  A worker is one process forked from
its *target* — a campaign, or a served session — plus one
:func:`~multiprocessing.Pipe`; it inherits the target as the parent
held it at the fork, so nothing is pickled, exported or rebuilt, and it
loops receive ``(fn, args)`` → ``fn(target, *args)`` → reply.

A campaign's pool forks its workers from the campaign itself, after
:meth:`ShardPoolOwner._before_fork` has built the lazy clean checks
once, so every worker starts with the prepared state, clean baselines
and (for propagation) the downstream replay state in its
copy-on-write pages.  Trials travel one way: each worker receives a
contiguous trial slice of the run's :class:`~repro.faults.model.SpecArrays`
batch plus the campaign's ``_SHARD_SETTINGS`` — the settings a caller
may change between runs, which the worker sets on its copy — runs the
ordinary chunk loop and returns columnar verdicts, or, for
propagation campaigns, records whose fault tuples it builds itself;
the parent concatenates them in shard order.

Pool lifecycle (DESIGN.md §4): a campaign forks its pool on its first
sharded run and reuses it for every later run that asks for no more
workers than it has; a larger request replaces it.  A warm run pays
only the pipe round trips and the merge.  The pool stops through the
campaign's ``close()`` or ``with`` block, or when the campaign is
collected or the interpreter exits; stopping terminates and joins the
workers.

Determinism contract: the parent draws the *entire* random spec stream
exactly as the in-process path would — one seeded RNG, whole-batch
draws — and splits it into contiguous trial shards, so a fixed campaign
seed yields record-for-record identical results at any worker count
(``workers=1`` *is* the in-process path; sharded runs merge to the same
records, pinned by a hypothesis property).

Failure contract: a worker that raises — or dies outright, which the
parent reads as ``EOFError`` or ``BrokenPipeError`` on its pipe —
surfaces as one :class:`~repro.errors.CampaignError` with the
underlying exception chained, and no partial merge escapes.  The
failed run also stops the pool, so the campaign's next sharded run
forks a fresh one.

Workers fork (``_mp_context``) because their targets cannot be
pickled: a session or a propagation campaign holds locks.  A write in
a forked worker lands in its own copy-on-write page and reaches neither
a sibling nor the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..errors import CampaignError
from .model import FaultSpec, SpecArrays

if TYPE_CHECKING:  # pragma: no cover - typing only (campaign imports this module)
    from .campaign import CampaignResult, FaultCampaign
    from .propagation import PropagationCampaign, PropagationRecord

__all__ = [
    "ShardPool",
    "ShardPoolOwner",
    "Worker",
    "run_campaign_sharded",
    "run_propagation_sharded",
    "shard_bounds",
]


# ----------------------------------------------------------------------
# The worker primitive: one forked process, one pipe.
# ----------------------------------------------------------------------
def _mp_context():
    """``fork`` where available: workers inherit their target (a
    campaign or a session, neither picklable) and the loaded NumPy."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _worker_loop(
    conn: Connection, target: Any, parent_end: Connection
) -> None:
    """A worker process: run ``fn(target, *args)`` per request, reply.

    A request is ``(fn, args)``; the reply is ``(True, value)`` or
    ``(False, exception)``.  The worker first closes the copy of the
    parent's end that the fork gave it, so the parent's end closing —
    or the parent dying — stops the worker.
    """
    parent_end.close()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(target, *args))
        except Exception as exc:  # raised again by the waiting caller
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the parent hung up
            return


@dataclass(eq=False)
class Worker:
    """One worker process forked from its target, and the parent's end
    of its pipe.

    ``owed`` counts replies to abandoned requests (a cancelled served
    request) that the worker has yet to send; its next taker reads and
    discards them first.
    """

    process: BaseProcess
    conn: Connection
    owed: int = 0

    @classmethod
    def fork(cls, target: Any) -> "Worker":
        """Fork a worker that runs requests against ``target``."""
        ctx = _mp_context()
        conn, child_end = ctx.Pipe()
        process = ctx.Process(
            target=_worker_loop,
            args=(child_end, target, conn),
            name="repro-worker",
            daemon=True,
        )
        process.start()
        # The worker holds the only other end, so its exit reads as EOF.
        child_end.close()
        return cls(process, conn)

    def send(self, fn: Callable, *args: Any) -> None:
        """Ask the worker for ``fn(target, *args)``; the reply comes on
        :attr:`conn`.

        Pickled to bytes here, not by ``Connection.send``: that sends a
        view of a ``BytesIO``, which a failed send's traceback keeps
        exported, so collecting the traceback can close the ``BytesIO``
        under its export (an error ``python -X dev`` reports).  Protocol
        5 writes NumPy columns without an intermediate copy.
        """
        self.conn.send_bytes(
            pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL)
        )

    def stop(self, *, close_pipe: bool = True) -> None:
        """Terminate the process and wait for it to exit.

        A caller still waiting on the pipe keeps it open
        (``close_pipe=False``) and closes it itself.
        """
        self.process.terminate()
        self.process.join()
        if close_pipe:
            self.conn.close()


# ----------------------------------------------------------------------
# Shard partitioning and the shard entry points.
# ----------------------------------------------------------------------
def shard_bounds(n_trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` trial shards, one per worker.

    At most ``min(workers, n_trials)`` shards, sizes differing by at
    most one, earlier shards taking the remainder — a pure function of
    ``(n_trials, workers)``, so the partition is deterministic.  The
    shards tile the trial index space in order, which is what lets the
    parent merge per-shard results by simple concatenation.
    """
    k = max(1, min(workers, n_trials))
    base, extra = divmod(n_trials, k)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _apply_settings(campaign: "ShardPoolOwner", settings: dict) -> None:
    """Set the parent's current run settings on a worker's campaign."""
    for name, value in settings.items():
        setattr(campaign, name, value)


def _run_campaign_shard(
    campaign: "FaultCampaign", arrays: SpecArrays, settings: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Execute one contiguous trial shard on a worker's campaign copy.

    ``arrays`` is the shard's slice of the parent's batch columns,
    which the worker runs exactly like the in-process path does.
    Returns the classification *columns* ``(deltas, detected,
    significant, benign)`` — compact numpy arrays; no spec or record
    object is built on either side of the process boundary.
    """
    _apply_settings(campaign, settings)
    return campaign._run_columns(arrays)


def _run_propagation_shard(
    campaign: "PropagationCampaign", arrays: SpecArrays, settings: dict
) -> "list[PropagationRecord]":
    """Execute one contiguous propagation-trial shard in a worker.

    The worker builds its slice's fault tuples for records and
    recovery and runs the standard chunk loop.  Records are plain
    frozen dataclasses and propagation throughput is orders of
    magnitude below the GEMM campaigns', so returning them pickled is
    free.
    """
    _apply_settings(campaign, settings)
    return campaign._run_records(arrays, arrays.tolist())


# ----------------------------------------------------------------------
# Parent-side orchestration: one long-lived pool per campaign.
# ----------------------------------------------------------------------
def _gather_shards(workers: Sequence[Worker]) -> list:
    """Receive one shard reply per worker, in shard order.

    A worker that raised raises :class:`CampaignError` with its
    exception chained; a dead one raises ``EOFError`` from its pipe.
    """
    results = []
    for worker in workers:
        ok, value = worker.conn.recv()
        if not ok:
            raise CampaignError(
                f"sharded campaign failed in a worker process: {value}"
            ) from value
        results.append(value)
    return results


def _stop_all(owner_pid: int, workers: list[Worker]) -> None:
    """Stop a pool's workers.

    Runs once per pool — from :meth:`ShardPool.close`, the pool's
    collection, or interpreter exit — and only in the process that
    forked them: a worker that collects an inherited pool object must
    not stop its siblings.
    """
    if os.getpid() != owner_pid:
        return
    while workers:
        workers.pop().stop()


class ShardPool:
    """Workers forked from one campaign, each with its own pipe.

    Construction forks ``workers`` workers from ``owner``; they stay up
    until :meth:`close`, the pool's collection or interpreter exit
    stops them.
    """

    def __init__(self, owner: "ShardPoolOwner", workers: int) -> None:
        self.workers = workers
        self._workers: list[Worker] = []
        self._finalizer = weakref.finalize(
            self, _stop_all, os.getpid(), self._workers
        )
        try:
            for _ in range(workers):
                self._workers.append(Worker.fork(owner))
        except BaseException:
            self.close()
            raise

    @property
    def alive(self) -> bool:
        """Whether the pool can still run shards (not yet stopped)."""
        return self._finalizer.alive

    def map(
        self, fn: Callable, arrays: SpecArrays, workers: int, *args: Any
    ) -> list:
        """``fn(owner, shard, *args)`` per contiguous shard, in shard order.

        ``arrays`` splits into at most ``workers`` shards
        (:func:`shard_bounds`); every shard is sent before the first
        reply is read.  Any failure — a worker raising or dying, or an
        interrupt — stops the pool before it propagates, as
        :class:`CampaignError` for a worker failure.
        """
        try:
            bounds = shard_bounds(len(arrays), workers)
            busy = self._workers[:len(bounds)]
            for worker, (lo, hi) in zip(busy, bounds):
                worker.send(fn, arrays[lo:hi], *args)
            return _gather_shards(busy)
        except (EOFError, OSError) as exc:  # a worker died
            self.close()
            raise CampaignError(
                f"sharded campaign failed in a worker process: {exc}"
            ) from exc
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the workers; idempotent."""
        self._finalizer()


class ShardPoolOwner:
    """A campaign's lazily forked :class:`ShardPool` and its shutdown.

    The pool forks from the campaign on its first sharded run and
    serves every later run that needs no more workers than it has;
    :meth:`close` — or leaving a ``with`` block — stops it, and the
    campaign stays usable: its next sharded run forks afresh.
    Subclasses name in ``_SHARD_SETTINGS`` the attributes a caller may
    change between runs; every sharded run ships their current values.
    """

    _pool: ShardPool | None = None
    _SHARD_SETTINGS: tuple[str, ...] = ()

    def _before_fork(self) -> None:
        """Build lazy state in the parent, once, so no worker rebuilds it."""

    def _shard_pool(self, workers: int) -> ShardPool:
        """The campaign's live pool of at least ``workers`` workers."""
        pool = self._pool
        if pool is None or not pool.alive or pool.workers < workers:
            self.close()
            self._before_fork()
            self._pool = pool = ShardPool(self, workers)
        return pool

    def _shard_settings(self) -> dict:
        """The run settings a sharded run ships with its trials."""
        return {name: getattr(self, name) for name in self._SHARD_SETTINGS}

    def close(self) -> None:
        """Stop the campaign's shard pool, if one is running."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_campaign_sharded(
    campaign: "FaultCampaign",
    *,
    workers: int,
    arrays: SpecArrays,
    faults: Sequence[Sequence[FaultSpec]] | None = None,
) -> "CampaignResult":
    """Run a campaign's trial batch on its shard pool; merge in order.

    Each worker classifies a contiguous trial slice of ``arrays`` on
    its forked copy of the campaign and returns verdict columns, which
    the parent concatenates in shard order into a columnar
    :class:`CampaignResult` over ``faults`` (default: the batch itself;
    an explicit run passes the caller's fault tuples) — the exact
    record sequence the in-process path produces.  The parent never
    assembles specs.
    """
    from .campaign import CampaignResult

    pool = campaign._shard_pool(workers)
    columns = pool.map(
        _run_campaign_shard, arrays, workers, campaign._shard_settings()
    )
    merged = tuple(
        np.concatenate([shard[k] for shard in columns]) for k in range(4)
    )
    return CampaignResult._from_columns(
        campaign.scheme.name, arrays if faults is None else faults, *merged
    )


def run_propagation_sharded(
    campaign: "PropagationCampaign",
    arrays: SpecArrays,
    *,
    workers: int,
) -> "list[PropagationRecord]":
    """Run a propagation trial batch on the campaign's shard pool.

    The workers hold forked copies of the campaign (struck-layer
    prepared execution, clean baselines, downstream replay state);
    each run ships only its trial slices and the campaign's current
    recovery policy and output tolerances.  Per-trial records are
    independent of chunk and shard boundaries, so ordered
    concatenation reproduces the sequential record stream exactly.
    """
    pool = campaign._shard_pool(workers)
    shards = pool.map(
        _run_propagation_shard, arrays, workers, campaign._shard_settings()
    )
    return [record for shard in shards for record in shard]

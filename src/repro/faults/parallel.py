"""Multiprocess sharded campaign execution.

The prepared struck-check engine sustains tens of thousands of trials
per second — on one core.  This module scales campaigns across cores by
sharding the *trials* of one run over a :class:`ShardPool`: worker
processes of a :class:`concurrent.futures.ProcessPoolExecutor` that
share the campaign's *fault-invariant* state.  The parent exports the
read-only :class:`~repro.abft.base.PreparedExecution` (padded operands,
clean FP32 accumulator, cached check arrays) into one
:mod:`multiprocessing.shared_memory` segment, and every worker maps
zero-copy views of it — no per-worker clean GEMM, no pickling of
operand or check arrays.  Trials travel one way: each worker receives
a contiguous trial slice of the run's
:class:`~repro.faults.model.SpecArrays` batch (a few small column
arrays, however the trials were made), runs the ordinary chunk loop
locally and returns columnar verdicts — or, for propagation
campaigns, records whose fault tuples it builds itself — and the
parent concatenates them in shard order.

Pool lifecycle (DESIGN.md §4): a campaign starts its pool on its first
sharded run — one export, one fork per worker — and reuses it for every
later run that asks for no more workers than it has; a larger request
replaces it.  Workers attach the segment once and keep the attachment,
so a warm run pays only the submit and the merge.  The pool shuts down
through the campaign's ``close()`` or ``with`` block, or when the
campaign is collected or the interpreter exits; shutting down joins the
workers, then unlinks the segment.

Determinism contract: the parent draws the *entire* random spec stream
exactly as the in-process path would — one seeded RNG, whole-batch
draws — and splits it into contiguous trial shards, so a fixed campaign
seed yields record-for-record identical results at any worker count
(``workers=1`` *is* the in-process path; sharded runs merge to the same
records, pinned by a hypothesis property).

Failure contract: a worker that raises — or dies outright
(:class:`~concurrent.futures.process.BrokenProcessPool`) — surfaces as
one :class:`~repro.errors.CampaignError` with the underlying exception
chained, and no partial merge escapes.  The failed run also shuts its
pool down and unlinks the segment, so the campaign's next sharded run
starts a fresh pool.

The pool uses the ``fork`` start method where available (cheap, and
the workers inherit the loaded NumPy), but nothing here depends on
inherited state: shard entry points are module-level functions taking
explicit picklable payloads, so the engine also runs under ``spawn``.
"""

from __future__ import annotations

import io
import logging
import multiprocessing
import os
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..config import DetectionConstants
from ..errors import CampaignError
from .model import FaultSpec, SpecArrays

if TYPE_CHECKING:  # pragma: no cover - typing only (campaign imports this module)
    from .campaign import CampaignResult, FaultCampaign
    from .propagation import PropagationCampaign, PropagationRecord

__all__ = [
    "SharedPayload",
    "ShardPool",
    "ShardPoolOwner",
    "attach_payload",
    "export_payload",
    "run_campaign_sharded",
    "run_propagation_sharded",
    "shard_bounds",
]

_LOGGER = logging.getLogger(__name__)

#: PID that imported this module — lets workers tell whether they
#: inherited the parent's resource tracker (fork: module state carried
#: over, so the pid differs) or own a fresh one (spawn: re-import).
_IMPORT_PID = os.getpid()

#: Segment names created (not merely attached) by this process, whose
#: tracker registration belongs to the owner and must never be undone.
_CREATED: set[str] = set()

#: Persistent-id tag marking an extracted ndarray in a pickled skeleton.
_NDARRAY_TAG = "repro-ndarray"
#: Byte alignment of each array inside the shared segment (cache line).
_SHM_ALIGN = 64


# ----------------------------------------------------------------------
# Shared-memory payloads: object graph -> (skeleton pickle, one shm
# segment holding every ndarray) -> zero-copy reconstruction in workers.
# ----------------------------------------------------------------------
class _ExtractingPickler(pickle.Pickler):
    """Pickler that parks every ndarray aside instead of serializing it.

    The pickled stream (the *skeleton*) contains persistent-id tokens
    where the arrays were; the arrays themselves are collected for
    placement in shared memory.  This works for arbitrary object
    graphs — dataclasses, ``__slots__`` classes, nested containers —
    with zero per-class code.
    """

    def __init__(self, file, arrays: list[np.ndarray]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays

    def persistent_id(self, obj):
        if type(obj) is np.ndarray:
            self._arrays.append(np.ascontiguousarray(obj))
            return (_NDARRAY_TAG, len(self._arrays) - 1)
        return None


class _ResolvingUnpickler(pickle.Unpickler):
    """Unpickler substituting shared-memory views for array tokens."""

    def __init__(self, file, arrays: Sequence[np.ndarray]) -> None:
        super().__init__(file)
        self._arrays = arrays

    def persistent_load(self, pid):
        tag, index = pid
        if tag != _NDARRAY_TAG:
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self._arrays[index]


@dataclass(frozen=True)
class SharedPayload:
    """A picklable handle to an object graph parked in shared memory.

    Attributes
    ----------
    shm_name:
        Name of the segment holding every extracted ndarray.
    skeleton:
        Pickle of the object graph with arrays replaced by tokens.
    metas:
        Per-array ``(dtype_str, shape, byte_offset)`` reconstruction
        metadata, in extraction order.
    """

    shm_name: str
    skeleton: bytes
    metas: tuple[tuple[str, tuple[int, ...], int], ...]


def export_payload(obj) -> tuple[SharedPayload, shared_memory.SharedMemory]:
    """Park ``obj``'s ndarrays in one shared segment; return the handle.

    The caller owns the returned segment and must ``close()`` and
    ``unlink()`` it when every consumer is done.  The payload itself is
    small (skeleton pickle + offsets) and cheap to ship to workers.
    """
    buf = io.BytesIO()
    arrays: list[np.ndarray] = []
    _ExtractingPickler(buf, arrays).dump(obj)
    offsets: list[int] = []
    total = 0
    for array in arrays:
        total = -(-total // _SHM_ALIGN) * _SHM_ALIGN
        offsets.append(total)
        total += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    metas = []
    for array, offset in zip(arrays, offsets):
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset
        )
        view[...] = array
        metas.append((array.dtype.str, array.shape, offset))
    payload = SharedPayload(
        shm_name=shm.name, skeleton=buf.getvalue(), metas=tuple(metas)
    )
    _CREATED.add(shm.name)
    return payload, shm


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Undo resource-tracker registration of an attach-only mapping.

    CPython's resource tracker registers every ``SharedMemory`` handle
    for cleanup — including pure attachments to a segment owned by
    another process (cpython#82300).  A *spawned* worker owns a private
    tracker, which would unlink the parent's segment when the worker
    exits — so the attachment must be unregistered there.  A *forked*
    worker shares the parent's tracker (the fd rides the fork), where
    the duplicate registration is an idempotent set-add and must be
    left alone: unregistering would strip the parent's own entry.  The
    two are told apart by whether this process inherited the module's
    import-time state.  Attaching in the *creating* process (useful in
    tests) must also leave the registration alone — it is the same
    entry ``export_payload`` made, and the owner's ``unlink()`` still
    needs it.
    """
    if os.getpid() != _IMPORT_PID:
        return
    if getattr(shm, "_name", shm.name).lstrip("/") in _CREATED:
        return
    try:
        resource_tracker.unregister(
            getattr(shm, "_name", shm.name), "shared_memory"
        )
    except (OSError, ValueError, KeyError) as exc:
        # The tracker process may already be gone (OSError: broken
        # pipe at interpreter teardown) or the registration cache may
        # not hold this name (ValueError/KeyError across CPython
        # versions).  Benign here — but logged, so a real lifecycle
        # bug (e.g. double-unregistration) is visible under
        # ``logging.DEBUG`` instead of silently swallowed.
        _LOGGER.debug(
            "resource-tracker unregister of %s failed: %s", shm.name, exc
        )


#: Worker-process cache of attached payloads, keyed by segment name —
#: the reconstruction cost is paid once per worker, not once per shard.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, object]] = {}


def attach_payload(payload: SharedPayload):
    """Reconstruct an exported object graph over shared-memory views.

    Every ndarray in the result is a read-only zero-copy view into the
    parent's segment; everything else is an ordinary private object
    rebuilt from the skeleton pickle.  Attachments are cached per
    process for the lifetime of the worker.
    """
    cached = _ATTACHED.get(payload.shm_name)
    if cached is not None:
        return cached[1]
    shm = shared_memory.SharedMemory(name=payload.shm_name)
    _untrack(shm)
    arrays: list[np.ndarray] = []
    for dtype_str, shape, offset in payload.metas:
        view = np.ndarray(
            shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=offset
        )
        view.flags.writeable = False
        arrays.append(view)
    obj = _ResolvingUnpickler(io.BytesIO(payload.skeleton), arrays).load()
    _ATTACHED[payload.shm_name] = (shm, obj)
    return obj


# ----------------------------------------------------------------------
# Shard partitioning and the worker entry points.
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


@dataclass(frozen=True)
class _ShardConfig:
    """Scalar campaign configuration shipped to every shard worker.

    Carries the parent campaign's *derived* settings — including the
    clean-baseline tolerance scale — so workers classify identically to
    the in-process path without re-running preparation or the baseline
    injection.
    """

    detection: DetectionConstants
    significance_factor: float
    tolerance_scale: float
    batch_size: int


def _run_campaign_shard(
    payload: SharedPayload, arrays: SpecArrays, cfg: _ShardConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Execute one contiguous trial shard in a worker process.

    ``arrays`` is the shard's slice of the parent's batch columns,
    which the worker runs exactly like the in-process path does.
    Returns the classification *columns* ``(deltas, detected,
    significant, benign)`` — compact numpy arrays; no spec or record
    object is built on either side of the process boundary.
    """
    from .campaign import FaultCampaign

    prepared = attach_payload(payload)
    campaign = FaultCampaign._from_prepared(
        prepared,
        detection=cfg.detection,
        significance_factor=cfg.significance_factor,
        tolerance_scale=cfg.tolerance_scale,
        batch_size=cfg.batch_size,
    )
    return campaign._run_columns(arrays)


def _run_propagation_shard(
    payload: SharedPayload, arrays: SpecArrays, settings: dict
) -> "list[PropagationRecord]":
    """Execute one contiguous propagation-trial shard in a worker.

    The payload is the parent campaign's shard state (struck-layer
    prepared execution, clean baselines, downstream replay ops — see
    :meth:`~repro.faults.PropagationCampaign._shard_state`) and
    ``settings`` the run's recovery policy and output tolerances; the
    worker rebuilds a replay-capable campaign over the shared views,
    builds its slice's fault tuples for records and recovery, and runs
    the standard chunk loop.  Records are plain frozen dataclasses and
    propagation throughput is orders of magnitude below the GEMM
    campaigns', so returning them pickled is free.
    """
    from .propagation import PropagationCampaign

    campaign = PropagationCampaign._from_state(attach_payload(payload), settings)
    return campaign._run_records(arrays, arrays.tolist())


# ----------------------------------------------------------------------
# Parent-side orchestration: one long-lived pool per campaign.
# ----------------------------------------------------------------------
def _mp_context():
    """``fork`` where available (cheap startup, inherits loaded NumPy);
    the platform default otherwise.  Shard entry points are spawn-safe
    either way."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _gather_shards(futures):
    """Collect shard results in submission order.

    Any worker failure — an exception raised mid-shard, or a dead
    worker surfacing as ``BrokenProcessPool`` — cancels the shards not
    yet started and re-raises as one :class:`CampaignError` with the
    cause chained.
    """
    results = []
    for future in futures:
        try:
            results.append(future.result())
        except Exception as exc:
            for pending in futures:
                pending.cancel()
            raise CampaignError(
                f"sharded campaign failed in a worker process: {exc}"
            ) from exc
    return results


def _shut_down(
    owner_pid: int, executor: ProcessPoolExecutor, shm: shared_memory.SharedMemory
) -> None:
    """Join a pool's workers, then close and unlink its segment.

    Runs once per pool — from :meth:`ShardPool.close`, the pool's
    collection, or interpreter exit — and only in the process that
    exported the segment: a forked worker that collects an inherited
    pool object must not tear down its parent's pool.  The segment is
    released on every path, so neither a failed join nor
    ``KeyboardInterrupt`` leaks ``/dev/shm`` space.
    """
    if os.getpid() != owner_pid:
        return
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _CREATED.discard(shm.name)


class ShardPool:
    """Worker processes plus the one shared segment they all read.

    Construction exports ``state`` — the owner's fault-invariant object
    graph — once, then closes the parent's own mapping of it: workers
    map the segment by name, and the parent only unlinks it on
    shutdown.  Workers fork on the first :meth:`map` and stay up, each
    attaching the segment once, until :meth:`close`, the pool's
    collection or interpreter exit shuts them down.
    """

    def __init__(self, state: Any, workers: int) -> None:
        self.workers = workers
        self._executor = executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=_mp_context()
        )
        self.payload, shm = export_payload(state)
        shm.close()
        self._finalizer = weakref.finalize(
            self, _shut_down, os.getpid(), executor, shm
        )

    @property
    def alive(self) -> bool:
        """Whether the pool can still run shards (not yet shut down)."""
        return self._finalizer.alive

    def map(
        self, fn: Callable, arrays: SpecArrays, workers: int, *args: Any
    ) -> list:
        """``fn(payload, shard, *args)`` per contiguous shard, in shard order.

        ``arrays`` splits into at most ``workers`` shards
        (:func:`shard_bounds`).  Any failure — a worker raising or
        dying, or an interrupt — shuts the pool down before it
        propagates, as :class:`CampaignError` for a worker failure.
        """
        try:
            futures = [
                self._executor.submit(fn, self.payload, arrays[lo:hi], *args)
                for lo, hi in shard_bounds(len(arrays), workers)
            ]
            return _gather_shards(futures)
        except BrokenProcessPool as exc:  # from submit: a worker died idle
            self.close()
            raise CampaignError(
                f"sharded campaign failed in a worker process: {exc}"
            ) from exc
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Join the workers and unlink the segment; idempotent."""
        self._finalizer()


class ShardPoolOwner:
    """A campaign's lazily started :class:`ShardPool` and its shutdown.

    Subclasses provide :meth:`_shard_state`, the fault-invariant object
    graph their workers read.  The pool starts on the first sharded
    run and serves every later run that needs no more workers than it
    has; :meth:`close` — or leaving a ``with`` block — shuts it down,
    and the campaign stays usable: its next sharded run starts afresh.
    """

    _pool: ShardPool | None = None

    def _shard_state(self) -> Any:
        raise NotImplementedError

    def _shard_pool(self, workers: int) -> ShardPool:
        """The campaign's live pool of at least ``workers`` workers."""
        pool = self._pool
        if pool is None or not pool.alive or pool.workers < workers:
            self.close()
            self._pool = pool = ShardPool(self._shard_state(), workers)
        return pool

    def close(self) -> None:
        """Shut down the campaign's shard pool, if one is running."""
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

    Each worker classifies a contiguous trial slice of ``arrays``
    against the pool's shared prepared state and returns verdict
    columns, which the parent concatenates in shard order into a
    columnar :class:`CampaignResult` over ``faults`` (default: the
    batch itself; an explicit run passes the caller's fault tuples) —
    the exact record sequence the in-process path produces.  The
    parent never assembles specs.
    """
    from .campaign import CampaignResult

    cfg = _ShardConfig(
        detection=campaign.detection,
        significance_factor=campaign.significance_factor,
        tolerance_scale=campaign._tolerance_scale,
        batch_size=campaign.batch_size,
    )
    pool = campaign._shard_pool(workers)
    columns = pool.map(_run_campaign_shard, arrays, workers, cfg)
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

    The pool shares the campaign's shard state (struck-layer prepared
    execution, clean baselines, downstream replay ops); each run ships
    only its trial slices and the campaign's current recovery policy
    and output tolerances.  Per-trial records are independent of chunk
    and shard boundaries, so ordered concatenation reproduces the
    sequential record stream exactly.
    """
    pool = campaign._shard_pool(workers)
    shards = pool.map(
        _run_propagation_shard, arrays, workers, campaign._shard_settings()
    )
    return [record for shard in shards for record in shard]

"""Scheme interface shared by all redundant-execution approaches.

A scheme answers two questions:

* ``plan`` — *what would it cost?*  Returns the kernels the scheme
  launches with their resource demands, which ``repro.gpu.timing``
  prices on a device.  This is the path every benchmark uses.
* ``execute`` — *does it actually detect faults?*  Runs the protected
  GEMM numerically on real data (optionally with injected faults) and
  evaluates the scheme's consistency checks.

Numeric execution is split into a **prepared-execution engine**: all
fault-invariant work (operand padding, tile selection, the clean FP32
GEMM, operand-side checksum/magnitude reductions) lives in a
:class:`PreparedExecution` built once by :meth:`Scheme.prepare`, and
each fault trial only pays the injection half — the struck checks'
re-reduction and the verdict.

Injection has **one path**, :meth:`PreparedExecution.inject_batch`,
which runs N trials per call (:meth:`PreparedExecution.inject` is the
``N == 1`` wrapper, ``execute`` a thin ``prepare(...).inject(...)``
wrapper).  A *struck check* is a check whose inputs a fault touched:
an original-path fault site perturbs exactly one reduction slice — one
row partial for the global schemes, one row/tile sum for the
thread-level ones, the element itself for elementwise replication —
and a checksum-path fault corrupts one check's checksum side.  Each
trial's struck checks are derived from its fault coordinates
(:func:`repro.faults.injector.faulted_site_values`), their slices
fully recomputed in the dense composition order, and every verdict is
rendered from those entries plus the prepared clean comparison
(:func:`~repro.abft.detection.compare_checksums_sparse`, DESIGN.md
§1.3).  No per-trial accumulator or check array is materialized —
outcomes build their accumulator lazily on first access — yet every
verdict and every accumulator element is bit-identical to reducing a
materialized accumulator in full, because each slice is recomputed by
the identical core reduction on identically laid-out data.  The test
suite keeps that full reduction as its dense oracle.

One level further, :class:`PreparedWeights` carries just the
weight-side state (padded ``B`` + weight checksums), which is constant
across inference requests (paper §2.5), m-independent given the tile,
and therefore reusable across *different* activations — including
activation batches of different row counts.
"""

from __future__ import annotations

import abc
import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..config import (
    DEFAULT_CONSTANTS,
    DEFAULT_DETECTION,
    INT8_DETECTION,
    DetectionConstants,
    ModelConstants,
)
from ..errors import ConfigurationError, ServingError, ShapeError
from ..faults.injector import (
    FaultSites,
    apply_fault_to_accumulator,
    faulted_site_values,
    keyed_corruption,
)
from ..faults.model import FaultPath, FaultSpec, SpecArrays
from ..gemm.counters import MainloopCost
from ..gemm.executor import TiledGemm, executor_for
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig, select_tile
from ..gpu.specs import GPUSpec
from ..gpu.timing import DeviceTable, KernelWork, time_kernel
from .detection import (
    CheckVerdict,
    CleanComparison,
    VerdictColumns,
    compare_checksums_sparse,
    prepare_clean_comparison,
)


@dataclass(frozen=True)
class PlannedKernel:
    """One kernel launch in a scheme's execution plan.

    Attributes
    ----------
    label:
        Human-readable role, e.g. ``"mainloop"`` or ``"abft-check"``.
    work:
        Resource demands for the latency model.
    visible_fraction:
        Fraction of this kernel's time that lands on the layer's
        critical path.  Global ABFT's check kernel overlaps the next
        layer (paper §2.5 step 5), so only part of it is visible.
    time_multiplier:
        Small fixed relative cost not captured by the counters (e.g.
        thread-level ABFT's final per-thread check serialization).
    """

    label: str
    work: KernelWork
    visible_fraction: float = 1.0
    time_multiplier: float = 1.0


@dataclass(frozen=True)
class SchemePlan:
    """All kernels a scheme launches to execute one protected GEMM."""

    scheme: str
    problem: GemmProblem
    tile: TileConfig
    kernels: tuple[PlannedKernel, ...]

    def modeled_time(
        self,
        spec: GPUSpec,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        *,
        table: DeviceTable | None = None,
    ) -> float:
        """Visible execution time of the whole plan on ``spec``, seconds.

        ``table`` is handed to :func:`~repro.gpu.timing.time_kernel` for
        every kernel of the plan.
        """
        total = 0.0
        for kernel in self.kernels:
            timing = time_kernel(spec, kernel.work, constants, table=table)
            total += timing.total_s * kernel.visible_fraction * kernel.time_multiplier
        return total

    def kernel_timings(
        self,
        spec: GPUSpec,
        constants: ModelConstants = DEFAULT_CONSTANTS,
    ) -> dict[str, float]:
        """Visible time per kernel label (diagnostics)."""
        out: dict[str, float] = {}
        for kernel in self.kernels:
            timing = time_kernel(spec, kernel.work, constants)
            out[kernel.label] = (
                timing.total_s * kernel.visible_fraction * kernel.time_multiplier
            )
        return out


class ExecutionOutcome:
    """Result of numerically executing a protected GEMM.

    Attributes
    ----------
    scheme:
        Scheme registry name.
    c:
        Logical ``M x N`` output in the FP16 domain (what the next layer
        consumes), lowered by ``epilogue`` — the executor's epilogue
        bound to the operand-scale product: a plain FP16 downcast on
        the FP16 pipeline, the dequantizing rescale on the INT8 one.
        Computed lazily from the accumulator on first access: fault
        campaigns read only verdicts and accumulators, so batched
        trials skip the epilogue entirely.
    c_accumulator:
        Padded accumulator grid after fault application (FP32 on the
        FP16 pipeline, INT32 on the quantized one).  Injection never
        materializes per-trial accumulators, so outcomes build this
        lazily on first access (clean copy plus the trial's
        original-path faults in spec order); campaigns that read only
        verdicts and fault sites never pay for it.  A :meth:`detach`
        copy has none.
    verdict:
        Consistency-check outcome (None for the unprotected scheme).
    injected:
        The fault specs that were applied.
    """

    __slots__ = (
        "scheme",
        "verdict",
        "injected",
        "_crop",
        "_c",
        "_acc",
        "_acc_factory",
        "_epilogue",
    )

    def __init__(
        self,
        scheme: str,
        c_accumulator: np.ndarray | None,
        verdict: CheckVerdict | None,
        injected: tuple[FaultSpec, ...] = (),
        *,
        crop: tuple[int, int] | None = None,
        acc_factory: Callable[[], np.ndarray] | None = None,
        epilogue: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        if c_accumulator is None and acc_factory is None:
            raise ConfigurationError(
                "ExecutionOutcome needs an accumulator or a factory for one"
            )
        self.scheme = scheme
        self._acc = c_accumulator
        self._acc_factory = acc_factory
        self.verdict = verdict
        self.injected = tuple(injected)
        # Reading the shape materializes a factory-only accumulator, so
        # lazy producers always pass an explicit crop.
        self._crop = crop if crop is not None else self.c_accumulator.shape
        self._c: np.ndarray | None = None
        self._epilogue = epilogue

    @property
    def c_accumulator(self) -> np.ndarray:
        if self._acc is None:
            self._acc = self._acc_factory()
        return self._acc

    @property
    def c(self) -> np.ndarray:
        m, n = self._crop
        if self._c is None:
            self._c = self._epilogue(self.c_accumulator[:m, :n])
        return self._c

    @property
    def detected(self) -> bool:
        """True if the scheme's checks flagged an inconsistency."""
        return bool(self.verdict is not None and self.verdict.detected)

    def detach(self) -> "ExecutionOutcome":
        """This outcome as a worker process returns it: ``c`` only.

        The copy keeps the scheme, the verdict, the injected specs and
        the FP16 output ``c``; the padded accumulator stays behind, and
        reading ``c_accumulator`` on the copy raises
        :class:`~repro.errors.ServingError`.
        """
        detached = ExecutionOutcome(
            self.scheme, None, self.verdict, self.injected,
            crop=self._crop, acc_factory=_accumulator_stays_in_worker,
            epilogue=None,  # c is set below: nothing is left to lower
        )
        detached._c = self.c
        return detached

    def __repr__(self) -> str:
        return (
            f"ExecutionOutcome(scheme={self.scheme!r}, detected={self.detected}, "
            f"injected={self.injected!r})"
        )


def _accumulator_stays_in_worker() -> np.ndarray:
    """The accumulator factory of a detached outcome: there is none."""
    raise ServingError(
        "this outcome was computed in a serving worker process; its padded "
        "accumulator stays in the worker, and only the FP16 output c was "
        "returned"
    )


class OutcomeBatch(Sequence):
    """The outcomes of one :meth:`PreparedExecution.inject_batch` call.

    A ``Sequence[ExecutionOutcome]`` that builds each outcome on first
    access (and keeps it): campaigns read :attr:`verdicts` — the
    batch's :class:`~repro.abft.detection.VerdictColumns`, or ``None``
    per trial for the unprotected scheme — and never pay for per-trial
    objects.  Each outcome gets a factory that materializes its
    accumulator on demand.  Compares equal to any sequence of the same
    outcomes.
    """

    __slots__ = ("verdicts", "_prepared", "_faults", "_built")

    def __init__(
        self,
        prepared: "PreparedExecution",
        faults_batch: Sequence[Sequence[FaultSpec]],
        verdicts: Sequence[CheckVerdict | None],
    ) -> None:
        self.verdicts = verdicts
        self._prepared = prepared
        self._faults = faults_batch
        self._built: list[ExecutionOutcome | None] = [None] * len(faults_batch)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        outcome = self._built[i]
        if outcome is None:
            prepared = self._prepared
            faults = tuple(self._faults[i])
            outcome = ExecutionOutcome(
                scheme=prepared.scheme.name,
                c_accumulator=None,
                verdict=self.verdicts[i],
                injected=faults,
                crop=(prepared.problem.m, prepared.problem.n),
                acc_factory=_accumulator_factory(prepared.c_clean, faults),
                epilogue=prepared.epilogue,
            )
            self._built[i] = outcome
        return outcome

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class PreparedWeights:
    """Weight-side fault-invariant state, reusable across activations.

    Built once per (scheme, ``B``, tile) by
    :meth:`Scheme.prepare_weights`; :meth:`Scheme.prepare` consumes it to
    skip ``B``-padding and weight-side checksum reductions when the same
    weights multiply many activations (repeated NN forward passes,
    device sweeps).  Results are bit-identical to uncached preparation.

    The state is **m-independent**: padding of ``B`` and every
    weight-side reduction depend only on ``(k, n)`` and the tile, so one
    entry serves activations of *any* row count.  The flip side is that
    the tile — normally selected per ``m`` — is pinned at build time:
    consuming the state at a different ``m`` executes with the pinned
    tile rather than the one ``select_tile`` would pick fresh.

    Like any prepared plan, the state *stands in* for ``B``: consumers
    validate geometry but deliberately never re-read the ``b`` operand
    (that is the work being amortized), so passing a different
    same-shape matrix — or mutating ``B`` after preparation — yields
    silently stale results.  Rebuild the state when weights change.

    Attributes
    ----------
    scheme:
        Registry name of the scheme the state was built for.
    k, n:
        Logical weight-matrix shape the padded ``B`` commits to.
    tile:
        The tile configuration the padding and reductions commit to.
    b_pad:
        Zero-padded weight matrix in the pipeline's storage dtype (FP16,
        or quantized INT8 for int8 schemes).
    b_digest:
        Content digest of the ``B`` the state was built from, taken
        once here.  :class:`PreparedCache` keys on it when a lookup
        passes this state, so a lookup hashes only the activations.
    weight_state:
        Scheme-specific checksum arrays (e.g.
        :class:`~repro.abft.checksums.GlobalWeightChecksums`), or None
        for schemes without weight-side reductions.
    b_scale:
        Quantization scale of ``b_pad`` (1.0 on the FP16 pipeline) —
        :meth:`Scheme.prepare` takes it from here to dequantize the
        epilogue, since ``b`` itself is never re-read.
    dtype:
        Pipeline dtype the state was built under; consuming it from a
        scheme of a different dtype is a configuration error (the
        padded bytes are not interchangeable).
    """

    scheme: str
    k: int
    n: int
    tile: TileConfig
    b_pad: np.ndarray
    b_digest: bytes
    weight_state: Any = None
    b_scale: float = 1.0
    dtype: str = "fp16"


class PreparedExecution:
    """All fault-invariant state of one protected GEMM.

    Owns the padded operands with their quantization scales, the
    chosen tile, the clean FP32 accumulator, and the scheme's
    checksum/magnitude arrays.
    :meth:`inject_batch` re-reduces only the checks each of N trials'
    faults struck and renders all verdicts in batch-wide NumPy calls —
    it never re-runs the GEMM or the operand-side reductions, so a
    campaign of N trials pays the expensive half exactly once and the
    Python dispatch overhead once per batch instead of once per trial.
    :attr:`clean_reductions` and :meth:`clean_comparison` cache the
    clean half those struck checks are compared against (built lazily,
    once) — see the module docstring and DESIGN.md §1.3.
    """

    __slots__ = (
        "scheme",
        "problem",
        "tile",
        "executor",
        "a_pad",
        "b_pad",
        "a_scale",
        "b_scale",
        "c_clean",
        "state",
        "_clean_reductions",
        "_clean_comparisons",
        "_lazy_lock",
    )

    def __init__(
        self,
        scheme: "Scheme",
        problem: GemmProblem,
        tile: TileConfig,
        executor: TiledGemm,
        a_pad: np.ndarray,
        b_pad: np.ndarray,
        a_scale: float,
        b_scale: float,
        c_clean: np.ndarray,
        state: Any,
    ) -> None:
        self.scheme = scheme
        self.problem = problem
        self.tile = tile
        self.executor = executor
        self.a_pad = a_pad
        self.b_pad = b_pad
        self.a_scale = a_scale
        self.b_scale = b_scale
        self.c_clean = c_clean
        self.state = state
        self._clean_reductions: Any = None
        self._clean_comparisons: dict[DetectionConstants, Any] = {}
        # Prepared state is shared across campaigns and threads (via
        # PreparedCache); the lazily built clean-comparison state below
        # must build exactly once even under racing readers.  Reentrant:
        # building the comparison state reads clean_reductions through
        # the scheme hook while the lock is held.
        self._lazy_lock = threading.RLock()

    @property
    def epilogue(self) -> Callable[[np.ndarray], np.ndarray]:
        """The executor's epilogue bound to this GEMM's scale product.

        The binding holds the executor and one float, not this state,
        so an outcome that keeps it keeps no padded operand alive.
        """
        return partial(self.executor.epilogue, scale=self.a_scale * self.b_scale)

    @property
    def clean_reductions(self) -> Any:
        """Clean output-side check arrays the struck checks replace.

        Scheme-specific (row partials, row sums, or tile sums of the
        *clean* accumulator, or the accumulator itself for elementwise
        replication), built by the scheme's
        :meth:`Scheme._clean_output_reductions` hook on first use and
        cached for the lifetime of the prepared state.  Thread-safe:
        racing readers build it exactly once.
        """
        if self._clean_reductions is None:  # repro: ignore[RL002] double-checked fast path
            with self._lazy_lock:
                if self._clean_reductions is None:
                    self._clean_reductions = (
                        self.scheme._clean_output_reductions(self)
                    )
        return self._clean_reductions  # repro: ignore[RL002] GIL-atomic read after publication

    def clean_comparison(self, detection: "DetectionConstants | None"):
        """Fault-invariant comparison state for struck-check verdicts.

        The scheme's clean checksum-vs-output comparison
        (:class:`repro.abft.detection.CleanComparison`), built once per
        detection-constants value and cached — the untouched half of
        every verdict.  ``None`` resolves to the scheme's pipeline
        default, the same rule ``inject`` applies.  Thread-safe: racing
        readers build each per-constants entry exactly once.
        """
        if detection is None:
            detection = self.scheme.default_detection
        cached = self._clean_comparisons.get(detection)  # repro: ignore[RL002] fast path
        if cached is None:
            with self._lazy_lock:
                cached = self._clean_comparisons.get(detection)
                if cached is None:
                    lhs, rhs, n_terms, magnitudes = (
                        self.scheme._clean_comparison_inputs(self)
                    )
                    cached = prepare_clean_comparison(
                        lhs, rhs, n_terms=n_terms, magnitudes=magnitudes,
                        constants=detection,
                    )
                    self._clean_comparisons[detection] = cached
        return cached

    def inject(
        self,
        faults: Sequence[FaultSpec] = (),
        *,
        detection: DetectionConstants | None = None,
    ) -> ExecutionOutcome:
        """One fault trial against the prepared state.

        Bit-identical to ``scheme.execute(a, b, faults=...)`` with the
        same tile, at a fraction of the cost.  Repeated calls are
        independent: each gets a fresh accumulator copy.  ``detection``
        defaults (``None``) to the scheme's
        :attr:`~Scheme.default_detection` — the FP16 rounding-noise
        tolerance or the INT8 exact half-ULP policy.
        """
        return self.inject_batch((faults,), detection=detection)[0]

    def inject_batch(
        self,
        specs_batch: Sequence[Sequence[FaultSpec]],
        *,
        detection: DetectionConstants | None = None,
        sites: FaultSites | None = None,
    ) -> OutcomeBatch:
        """N independent fault trials against the prepared state at once.

        ``specs_batch[i]`` holds trial ``i``'s fault specs (empty for a
        clean trial); a :class:`~repro.faults.model.SpecArrays` batch
        is such a sequence, and any other is converted to one.  Faults
        map to their struck checks, only those are re-reduced, and
        every verdict renders from them against the cached clean
        comparison (:meth:`Scheme._render_verdicts`) — bit-identical,
        field for field, to reducing each trial's materialized
        accumulator in full, which the test suite's dense oracle pins,
        and so to N sequential :meth:`inject` calls.  The result is an
        :class:`OutcomeBatch`: its ``verdicts`` columns are computed,
        each outcome object is built only when indexed (carrying
        ``specs_batch[i]``), and its accumulator only when read.

        ``sites``, if given, must be the
        :func:`~repro.faults.injector.faulted_site_values` map of
        exactly ``specs_batch`` — callers that already derived it (the
        campaign runner shares one map between injection and record
        classification) pass it to skip the recomputation, and no spec
        of ``specs_batch`` is then read.  Deriving the map bounds-checks
        every spec, so an out-of-range site raises
        :class:`~repro.errors.FaultInjectionError`.
        """
        n = len(specs_batch)
        if not n:
            return OutcomeBatch(self, (), ())
        if detection is None:
            detection = self.scheme.default_detection
        if sites is None:
            if isinstance(specs_batch, SpecArrays):
                batch = specs_batch
            else:
                specs_batch = [tuple(faults) for faults in specs_batch]
                batch = SpecArrays.from_trials(specs_batch)
            sites = faulted_site_values(self.c_clean, batch)
        elif sites.n_trials != n:
            raise ConfigurationError(
                f"precomputed sites cover {sites.n_trials} trials, "
                f"batch has {n}"
            )
        if not self.scheme.protects:
            return OutcomeBatch(self, specs_batch, [None] * n)
        verdicts = self.scheme._render_verdicts(self, sites, detection)
        return OutcomeBatch(self, specs_batch, verdicts)


class PreparedCache:
    """Cross-campaign cache of :class:`PreparedExecution` states.

    Parameter sweeps — several :class:`~repro.faults.FaultCampaign`
    instances over one problem, varying significance factors, detection
    constants, or per-trial fault counts — repeat the *identical*
    fault-invariant work per campaign: padding, tile selection, the
    clean GEMM, and the operand-side reductions depend only on
    ``(scheme, a, b, tile)``.  This cache keys prepared states by
    exactly that tuple — the scheme's :attr:`Scheme.cache_token`, a
    content digest of each operand, and the *resolved* tile (an
    explicit override and the tile ``select_tile`` would pick
    deduplicate to one entry) — so a sweep of N campaigns runs the
    expensive half exactly once, asserted in tests via
    ``EXECUTION_STATS``.  Lazily built clean-comparison state
    (:attr:`PreparedExecution.clean_reductions`, the per-constants
    ``CleanComparison``) lives on the shared entry too, so later
    campaigns skip even that.

    Entries stand in for their operands exactly like any prepared plan:
    the digest is taken at :meth:`get` time, so *mutating* an operand
    array after a hit was cached is safe (the new content digests
    differently) — but the cached state must not be mutated by
    consumers, which no engine path does.  A :meth:`get` passed
    ``weights=`` keys on the digest the :class:`PreparedWeights` took of
    ``B`` when it was built, so weights must not change under their
    prepared state (which :class:`PreparedWeights` already requires).

    The cache is thread-safe: an internal lock serializes :meth:`get`
    (including the miss-path ``prepare``, so racing getters of one key
    still run the clean GEMM exactly once), :meth:`clear`, and
    ``len``.  Campaigns on separate threads may therefore share one
    cache; the returned :class:`PreparedExecution` is read-only by
    contract and needs no further guarding.

    Parameters
    ----------
    maxsize:
        Optional LRU bound on the number of cached states (each holds
        padded operands plus the clean accumulator).  ``None`` —
        the default — keeps every entry, which is right for sweeps
        over a handful of problems.

    Example
    -------
    >>> import numpy as np
    >>> from repro.abft import GlobalABFT, PreparedCache
    >>> rng = np.random.default_rng(0)
    >>> a = rng.standard_normal((32, 16)).astype(np.float16)
    >>> b = rng.standard_normal((16, 8)).astype(np.float16)
    >>> cache = PreparedCache()
    >>> first = cache.get(GlobalABFT(), a, b)
    >>> cache.get(GlobalABFT(), a, b) is first  # same content: one entry
    True
    >>> len(cache)
    1
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ConfigurationError(
                f"maxsize must be positive or None, got {maxsize}"
            )
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, PreparedExecution] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key_for(
        self,
        scheme: "Scheme",
        a: np.ndarray,
        b: np.ndarray,
        tile: TileConfig | None = None,
        *,
        weights: PreparedWeights | None = None,
    ) -> tuple:
        """The cache key ``(scheme, a, b, tile)`` resolves to.

        ``weights``, when given, pins the tile exactly like
        :meth:`Scheme.prepare` would, and stands in for ``b``'s digest
        with the one taken when it was built, so a miss prepared
        through the weight-side state and a plain hit resolve to the
        same entry without re-hashing the weights.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if tile is None and weights is not None:
            tile = weights.tile
        if tile is None and a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0]:
            tile = select_tile(GemmProblem(a.shape[0], b.shape[1], a.shape[1]))
        b_digest = weights.b_digest if weights is not None else _digest(b)
        return (scheme.cache_token, _digest(a), b_digest, tile)

    def get(
        self,
        scheme: "Scheme",
        a: np.ndarray,
        b: np.ndarray,
        *,
        tile: TileConfig | None = None,
        weights: PreparedWeights | None = None,
    ) -> PreparedExecution:
        """The shared prepared state for ``(scheme, a, b, tile)``.

        A hit returns the cached :class:`PreparedExecution` (prepared
        by an equivalent scheme on identical operand contents — the
        state is fault-invariant, so results are bit-identical to a
        private ``scheme.prepare``); a miss prepares, caches, and
        returns.  Malformed operands raise ``prepare``'s own errors.
        ``weights`` (from :meth:`Scheme.prepare_weights`, built from
        the same ``b``) lets a miss skip the weight-side padding and
        reductions, exactly like passing it to ``prepare`` — engines
        that amortize the weight side across activations keep that
        amortization on cache misses.
        """
        key = self.key_for(scheme, a, b, tile, weights=weights)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached
            self.misses += 1
            # prepare() runs inside the critical section deliberately:
            # concurrent getters of one key must not each pay (or
            # stat-count) the clean GEMM — the exactly-once contract
            # holds under threads just as it does sequentially.
            prepared = scheme.prepare(a, b, tile=tile, weights=weights)
            self._entries[key] = prepared
            if self.maxsize is not None and len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return prepared

    def clear(self) -> None:
        """Drop every cached state (hit/miss counters keep counting)."""
        with self._lock:
            self._entries.clear()


class Scheme(abc.ABC):
    """Abstract redundant-execution scheme.

    Every scheme executes on one of two numeric pipelines, chosen by the
    ``dtype`` constructor keyword: ``"fp16"`` (FP16 operands, FP32
    accumulation — the paper's configuration) or ``"int8"`` (per-tensor
    symmetric quantization, INT8 operands, exact INT32 accumulation,
    checksum reductions over the quantized domain).  All prepared
    /batched/struck-check machinery is dtype-generic; the pipeline only
    changes the executor, the accumulator dtype, and the default
    detection constants.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether the scheme performs any checking at all.  A scheme that
    #: does implements the struck-check hooks below; one that does not
    #: (none) renders ``None`` verdicts.
    protects: bool = True

    def __init__(self, *, dtype: str = "fp16") -> None:
        if dtype not in ("fp16", "int8"):
            raise ConfigurationError(
                f"unknown scheme dtype {dtype!r} (expected fp16|int8)"
            )
        self.dtype = dtype

    @property
    def default_detection(self) -> DetectionConstants:
        """Detection constants matched to the scheme's numeric pipeline.

        The FP16 pipeline budgets for FP32 accumulation noise
        (:data:`~repro.config.DEFAULT_DETECTION`); the INT8 pipeline is
        exact, so its tolerance is the half-ULP
        :data:`~repro.config.INT8_DETECTION` — applying the FP16
        constants to integer magnitudes would silently inflate the
        tolerance by orders of magnitude, which is why every engine
        layer defaults to this property rather than a global constant.
        """
        return INT8_DETECTION if self.dtype == "int8" else DEFAULT_DETECTION

    @property
    def cache_token(self) -> Any:
        """Hashable identity under which prepared state may be shared.

        Two scheme instances with equal tokens must produce
        bit-identical prepared state for identical operands —
        :class:`PreparedCache` relies on this.  The registry name
        suffices for parameterless FP16 schemes; schemes whose
        constructor arguments change the prepared state (e.g.
        ``global_multi``'s checksum count, or the int8 pipeline's
        quantized operands) must fold them in.
        """
        return self.name if self.dtype == "fp16" else (self.name, self.dtype)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def plan(
        self,
        problem: GemmProblem,
        tile: TileConfig,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        *,
        cost: MainloopCost | None = None,
    ) -> SchemePlan:
        """Resource plan for one protected GEMM under this scheme.

        ``cost`` is ``mainloop_cost(problem, tile, constants)`` when the
        caller already has it (the profiler shares one across schemes);
        it is computed when omitted.
        """

    # ------------------------------------------------------------------
    # Prepared-execution engine
    # ------------------------------------------------------------------
    def prepare(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        tile: TileConfig | None = None,
        weights: PreparedWeights | None = None,
    ) -> PreparedExecution:
        """Do all fault-invariant work for this operand pair once.

        Validates operands, picks a tile, pads, runs the clean FP32
        GEMM, and builds the scheme's checksum/magnitude arrays.  Pass
        ``weights`` (from :meth:`prepare_weights`) to additionally skip
        the ``B``-side padding and reductions — geometry is validated
        but ``b``'s *contents* are then taken from the prepared state,
        so the caller must pass the same matrix the state was built
        from (see :class:`PreparedWeights`).
        """
        problem, chosen = self._setup(a, b, tile, weights)
        executor = executor_for(problem, chosen, self.dtype)
        if weights is None:
            b_pad, b_scale = executor.pad_b(b)
        else:
            # b is never re-read through prepared weights: the padded
            # bytes and their scale stand in for it.
            b_pad, b_scale = weights.b_pad, weights.b_scale
        a_pad, a_scale = executor.pad_a(a)
        c_clean = executor.multiply(a_pad, b_pad)
        state = self._prepare_state(
            executor, a_pad, b_pad, c_clean,
            weights.weight_state if weights is not None else None,
        )
        return PreparedExecution(
            self, problem, chosen, executor, a_pad, b_pad, a_scale, b_scale,
            c_clean, state,
        )

    def prepare_weights(
        self,
        b: np.ndarray,
        *,
        m: int | None = None,
        tile: TileConfig | None = None,
    ) -> PreparedWeights:
        """Pad ``B`` and build weight-side checksums for reuse.

        The state is valid for *any* activation row count (padding and
        weight reductions are m-independent given the tile), but the
        tile must be pinned up front: pass either an explicit ``tile``
        or ``m`` — a representative activation row count fed to
        ``select_tile``.
        """
        if b.ndim != 2:
            raise ShapeError("weights must be a 2-D matrix")
        k, n = b.shape
        if tile is None:
            if m is None:
                raise ConfigurationError(
                    "prepare_weights needs a representative activation row "
                    "count m (for tile selection) or an explicit tile"
                )
            tile = select_tile(GemmProblem(m, n, k))
        # The executor is only used for geometry; any m works, so use a
        # minimal reference problem when no row count was given.
        executor = executor_for(
            GemmProblem(m if m is not None else tile.mt, n, k), tile, self.dtype
        )
        b_pad, b_scale = executor.pad_b(b)
        return PreparedWeights(
            scheme=self.name,
            k=k,
            n=n,
            tile=tile,
            b_pad=b_pad,
            b_digest=_digest(b),
            weight_state=self._prepare_weight_state(executor, b_pad),
            b_scale=b_scale,
            dtype=self.dtype,
        )

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        tile: TileConfig | None = None,
        faults: Sequence[FaultSpec] = (),
        detection: DetectionConstants | None = None,
        weights: PreparedWeights | None = None,
    ) -> ExecutionOutcome:
        """Numerically execute the protected GEMM with optional faults."""
        prepared = self.prepare(a, b, tile=tile, weights=weights)
        return prepared.inject(faults, detection=detection)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _prepare_weight_state(
        self, executor: TiledGemm, b_pad: np.ndarray
    ) -> Any:
        """Weight-side checksum state (override where the scheme has any)."""
        return None

    def _prepare_state(
        self,
        executor: TiledGemm,
        a_pad: np.ndarray,
        b_pad: np.ndarray,
        c_clean: np.ndarray,
        weight_state: Any,
    ) -> Any:
        """Fault-invariant checksum state (override where the scheme has any)."""
        return None

    def _clean_output_reductions(self, prepared: PreparedExecution) -> Any:
        """Clean output-side check arrays the struck checks replace.

        The reduction of the *clean* accumulator that a trial's struck
        slices are recomputed against (cached on the prepared state by
        :attr:`PreparedExecution.clean_reductions`).
        """
        raise NotImplementedError(f"scheme {self.name!r} performs no checks")

    def _clean_comparison_inputs(
        self, prepared: PreparedExecution
    ) -> tuple[np.ndarray, np.ndarray, int, Any]:
        """``(checksum_side, output_side, n_terms, magnitudes)`` of the
        clean comparison: the check arrays, reduction length and
        magnitude bounds the scheme compares, on the clean state."""
        raise NotImplementedError(f"scheme {self.name!r} performs no checks")

    def _struck_checks(
        self, prepared: PreparedExecution, sites: FaultSites
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(trials, checks, values)`` of every check a fault site struck.

        One entry per unique (trial, flat check index) pair in
        trial-major, ascending-check order, ``values`` holding the
        re-reduced output-side check value (the ``*struck_*`` reducers
        in :mod:`repro.abft.checksums`)."""
        raise NotImplementedError(f"scheme {self.name!r} performs no checks")

    def _checksum_check(
        self, prepared: PreparedExecution, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Flat indices of the checks whose checksum sides checksum-path
        faults at ``(rows, cols)`` corrupt (already bounds-checked)."""
        raise NotImplementedError(f"scheme {self.name!r} performs no checks")

    def _struck_magnitudes(
        self, references: np.ndarray, values: np.ndarray
    ) -> np.ndarray | None:
        """Magnitude bounds of struck checks from their two sides.

        ``None`` (the default) when the bound is fault-invariant and the
        clean comparison's serves; schemes bounding by the compared
        values themselves (elementwise replication) override."""
        return None

    def _render_verdicts(
        self,
        prepared: PreparedExecution,
        sites: FaultSites,
        detection: DetectionConstants,
    ) -> VerdictColumns:
        """Every trial's verdict from its struck checks (engine template).

        Never materializes per-trial accumulators or check arrays:
        struck checks are re-reduced alone (:meth:`_struck_checks`, in
        the dense composition order), checks corrupted on the checksum
        side join them (:meth:`_with_checksum_faults`), and one
        :func:`~repro.abft.detection.compare_checksums_sparse` call
        renders the batch against the cached clean comparison.  Reads
        the fault sites only, never a spec.
        """
        clean = prepared.clean_comparison(detection)
        trials, checks, values = self._struck_checks(prepared, sites)
        if len(sites.checksum.rows):
            trials, checks, values, references = self._with_checksum_faults(
                prepared, clean, trials, checks, values, sites.checksum
            )
        else:
            references = clean.checksum_side[checks]
        return compare_checksums_sparse(
            clean, trials, checks, values,
            n_trials=sites.n_trials,
            references=references,
            magnitudes=self._struck_magnitudes(references, values),
        )

    def _with_checksum_faults(
        self,
        prepared: PreparedExecution,
        clean: CleanComparison,
        trials: np.ndarray,
        checks: np.ndarray,
        values: np.ndarray,
        faults: SpecArrays,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Struck entries joined by the checks checksum-path faults hit.

        ``faults`` holds the batch's checksum-path entries in spec
        order.  A corrupted check's checksum side starts clean and
        takes its trial's entries on that check in spec order
        (:func:`~repro.faults.injector.keyed_corruption` in the
        checksum side's own dtype).  Returns ``(trials, checks, values,
        references)`` over the union of both entry sets, in
        trial-major, ascending-check order: ``values`` is the
        re-reduced output side where a fault site struck the check and
        the clean one elsewhere, ``references`` the checksum side.
        """
        n_checks = clean.checks
        hit_checks = self._checksum_check(
            prepared,
            np.asarray(faults.rows, dtype=np.intp),
            np.asarray(faults.cols, dtype=np.intp),
        )
        keys = faults.entry_trials() * n_checks + hit_checks
        first, corrupted = keyed_corruption(
            keys,
            clean.checksum_side[hit_checks],
            faults.kind_codes,
            faults.bits,
            faults.values,
        )
        hit = keys[first]
        struck = trials * n_checks + checks
        keys = np.union1d(struck, hit)
        trials, checks = np.divmod(keys, n_checks)
        merged = clean.output_side[checks]
        merged[np.searchsorted(keys, struck)] = values
        references = clean.checksum_side[checks]
        references[np.searchsorted(keys, hit)] = corrupted
        return trials, checks, merged, references

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    def _setup(
        self,
        a: np.ndarray,
        b: np.ndarray,
        tile: TileConfig | None,
        weights: PreparedWeights | None = None,
    ) -> tuple[GemmProblem, TileConfig]:
        """Validate operands (and prepared weights); the problem and its tile."""
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError("operands must be 2-D matrices")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
        problem = GemmProblem(a.shape[0], b.shape[1], a.shape[1])
        if weights is not None:
            if weights.scheme != self.name:
                raise ConfigurationError(
                    f"prepared weights were built for scheme "
                    f"{weights.scheme!r}, not {self.name!r}"
                )
            if weights.dtype != self.dtype:
                raise ConfigurationError(
                    f"prepared weights were built for dtype "
                    f"{weights.dtype!r}, not {self.dtype!r}"
                )
            if (weights.k, weights.n) != (problem.k, problem.n):
                raise ShapeError(
                    f"prepared weights commit to a {weights.k}x{weights.n} "
                    f"weight matrix, operands describe {problem}"
                )
            if tile is not None and tile != weights.tile:
                raise ConfigurationError(
                    f"prepared weights were built for tile {weights.tile}, "
                    f"got tile override {tile}"
                )
            return problem, weights.tile
        return problem, tile if tile is not None else select_tile(problem)


def _digest(arr: np.ndarray) -> bytes:
    """Content digest of one operand (dtype, shape, and bytes).

    SHA-256, read straight from the array's buffer (a non-contiguous
    view is copied once), truncated to a 16-byte key.
    """
    h = hashlib.sha256(arr.dtype.str.encode())
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr))
    return h.digest()[:16]


def _accumulator_factory(
    c_clean: np.ndarray, faults: tuple[FaultSpec, ...]
) -> Callable[[], np.ndarray]:
    """Deferred materialization of one trial's faulted accumulator.

    Clean copy plus the trial's original-path faults in spec order —
    the accumulator whose struck checks the verdict re-reduced.
    """

    def materialize() -> np.ndarray:
        acc = c_clean.copy()
        for spec in faults:
            if spec.path is FaultPath.ORIGINAL:
                apply_fault_to_accumulator(acc, spec)
        return acc

    return materialize

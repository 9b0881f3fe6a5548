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
each fault trial only pays the injection half — a copy of the
accumulator, the output-side re-reduction, and the verdict.

Injection itself is **batched**: :meth:`PreparedExecution.inject_batch`
stacks N trials' accumulators into one ``(N, m, n)`` array, applies all
faults with vectorized fancy indexing, re-reduces the output side of
every trial in single NumPy calls, and renders all verdicts at once.
:meth:`PreparedExecution.inject` is the ``N == 1`` wrapper and
``execute`` a thin ``prepare(...).inject(...)`` wrapper, so one-shot
callers are untouched while campaigns run hundreds of trials per NumPy
dispatch.  Because both paths share one set of batch-aware reducers
(and NumPy applies the identical core reduction per stacked slice),
``inject_batch`` is bit-identical to sequential ``inject`` calls.

On top of the dense batch sits **sparse re-reduction** (DESIGN.md
§1.3): a single-element fault perturbs exactly one reduction slice —
one row partial for the global schemes, one row/tile sum for the
thread-level ones — so schemes that declare :attr:`Scheme.
supports_sparse` derive each trial's struck slices from its fault
coordinates (:func:`repro.faults.injector.faulted_site_values`), fully
recompute *only those slices* in the dense composition order, and
splice them into broadcast copies of the clean check arrays.  The
stacked accumulator is never materialized on this path — outcomes
build theirs lazily on first access — yet every verdict and every
accumulator element is bit-identical to the dense batch, because each
slice is recomputed by the identical core reduction on identically
laid-out data.

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
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..config import (
    DEFAULT_CONSTANTS,
    DEFAULT_DETECTION,
    INT8_DETECTION,
    DetectionConstants,
    ModelConstants,
)
from ..errors import ConfigurationError, ShapeError
from ..faults.injector import (
    FaultSites,
    apply_fault_to_accumulator,
    faulted_site_values,
    subset_sites,
)
from ..faults.model import FaultPath, FaultSpec
from ..gemm.counters import MainloopCost
from ..gemm.executor import TiledGemm, executor_for
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig, select_tile
from ..gpu.specs import GPUSpec
from ..gpu.timing import DeviceTable, KernelWork, time_kernel
from .detection import (
    CheckVerdict,
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
        consumes), lowered by the executor's epilogue — a plain FP16
        downcast on the FP16 pipeline, the dequantizing rescale on the
        INT8 one.  Computed lazily from the accumulator on first
        access: fault campaigns read only verdicts and accumulators, so
        batched trials skip the epilogue entirely.
    c_accumulator:
        Padded accumulator grid after fault application (FP32 on the
        FP16 pipeline, INT32 on the quantized one).  Sparse
        re-reduction never materializes per-trial accumulators, so
        outcomes it produces build this lazily on first access (clean
        copy plus the scalar fault applications — bit-identical to the
        dense batch's slice); campaigns that read only verdicts and
        fault sites never pay for it.
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
        epilogue: Callable[[np.ndarray], np.ndarray] | None = None,
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
            lower = self._epilogue if self._epilogue is not None else Scheme._to_fp16
            self._c = lower(self.c_accumulator[:m, :n])
        return self._c

    @property
    def detected(self) -> bool:
        """True if the scheme's checks flagged an inconsistency."""
        return bool(self.verdict is not None and self.verdict.detected)

    def __repr__(self) -> str:
        return (
            f"ExecutionOutcome(scheme={self.scheme!r}, detected={self.detected}, "
            f"injected={self.injected!r})"
        )


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
    weight_state:
        Scheme-specific checksum arrays (e.g.
        :class:`~repro.abft.checksums.GlobalWeightChecksums`), or None
        for schemes without weight-side reductions.
    b_scale:
        Per-tensor quantization scale of ``b_pad`` (int8 pipelines
        only) — the executor consuming the state needs it to dequantize
        the epilogue, since ``b`` itself is never re-read.
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
    weight_state: Any = None
    b_scale: float | None = None
    dtype: str = "fp16"


class PreparedExecution:
    """All fault-invariant state of one protected GEMM.

    Owns the padded operands, the chosen tile, the clean FP32
    accumulator, and the scheme's checksum/magnitude arrays.
    :meth:`inject_batch` applies N trials' faults to a stacked *copy* of
    the accumulator, re-reduces the output side of all trials in single
    NumPy calls, and renders all verdicts — it never re-runs the GEMM or
    the operand-side reductions, so a campaign of N trials pays the
    expensive half exactly once and the Python dispatch overhead once
    per batch instead of once per trial.

    Schemes with :attr:`Scheme.supports_sparse` additionally get
    **sparse re-reduction**: :attr:`clean_reductions` caches the clean
    output-side check arrays (built lazily, once), and sparse batches
    recompute only the reduction slices each trial's faults actually
    struck — see the module docstring and DESIGN.md §1.3.
    """

    __slots__ = (
        "scheme",
        "problem",
        "tile",
        "executor",
        "a_pad",
        "b_pad",
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
        c_clean: np.ndarray,
        state: Any,
    ) -> None:
        self.scheme = scheme
        self.problem = problem
        self.tile = tile
        self.executor = executor
        self.a_pad = a_pad
        self.b_pad = b_pad
        self.c_clean = c_clean
        self.state = state
        self._clean_reductions: Any = None
        self._clean_comparisons: dict[DetectionConstants, Any] = {}
        # Prepared state is shared across campaigns and threads (via
        # PreparedCache); the lazily built sparse-path state below must
        # build exactly once even under racing readers.  Reentrant:
        # building the comparison state reads clean_reductions through
        # the scheme hook while the lock is held.
        self._lazy_lock = threading.RLock()

    def __getstate__(self) -> dict:
        """Slot state minus the (unpicklable) lock, for shard export."""
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_lazy_lock"
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._lazy_lock = threading.RLock()

    @property
    def clean_reductions(self) -> Any:
        """Clean output-side check arrays for sparse splicing.

        Scheme-specific (row partials, row sums, or tile sums of the
        *clean* accumulator), built by the scheme's
        :meth:`Scheme._clean_output_reductions` hook on first sparse
        batch and cached for the lifetime of the prepared state.
        Thread-safe: racing readers build it exactly once.
        """
        if self._clean_reductions is None:  # repro: ignore[RL002] double-checked fast path
            with self._lazy_lock:
                if self._clean_reductions is None:
                    self._clean_reductions = (
                        self.scheme._clean_output_reductions(self)
                    )
        return self._clean_reductions  # repro: ignore[RL002] GIL-atomic read after publication

    def clean_comparison(self, detection: "DetectionConstants | None"):
        """Fault-invariant comparison state for sparse verdicts.

        The scheme's clean checksum-vs-output comparison
        (:class:`repro.abft.detection.CleanComparison`), built once per
        detection-constants value and cached — the other half of what
        sparse batches splice against.  ``None`` resolves to the
        scheme's pipeline default, the same rule ``inject`` applies.
        Thread-safe: racing readers build each per-constants entry
        exactly once.
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
        out: np.ndarray | None = None,
        sparse: bool | None = None,
        sites: FaultSites | None = None,
    ) -> list[ExecutionOutcome]:
        """N independent fault trials against the prepared state at once.

        ``specs_batch[i]`` holds trial ``i``'s fault specs (empty for a
        clean trial).  On the dense path all trials' accumulators are
        stacked into one ``(N, m_full, n_full)`` array, faults land via
        vectorized fancy indexing, the output side is re-reduced for
        every trial in single NumPy calls, and all verdicts render at
        once — bit-identical, element for element, to N sequential
        :meth:`inject` calls with the same specs.

        ``sparse`` selects the re-reduction path: ``None`` (default)
        uses sparse re-reduction whenever the scheme supports it,
        ``False`` forces the dense batch, ``True`` demands sparse and
        raises :class:`~repro.errors.ConfigurationError` for schemes
        without a sparse path.  The sparse path recomputes only the
        reduction slices each trial's faults struck and never
        materializes the stacked accumulator (outcomes build theirs
        lazily on first ``c_accumulator`` access), but is — by the
        recompute-in-order contract, pinned by the hypothesis suite in
        ``tests/properties/test_sparse_reduction.py`` — bit-identical
        to the dense path.

        Dense memory scales with ``N * m_full * n_full`` FP32 values
        (plus the float64 reduction intermediates); callers running
        very large campaigns should chunk —
        :meth:`repro.faults.FaultCampaign.run` does.  ``out``, if
        given, is used as the dense stacked accumulator storage (shape
        ``(N, m_full, n_full)`` float32), letting such callers reuse
        one scratch buffer across chunks instead of faulting in fresh
        pages per call; the returned outcomes' ``c_accumulator`` arrays
        are then views into ``out`` and are invalidated when the buffer
        is next reused.  Sparse batches ignore ``out``.

        ``sites``, if given, must be the
        :func:`~repro.faults.injector.faulted_site_values` map of
        exactly ``specs_batch`` — callers that already derived it (the
        campaign runner shares one map between injection and record
        classification) pass it to skip the recomputation.  Only the
        sparse path consumes it.
        """
        faults_batch = [tuple(faults) for faults in specs_batch]
        if not faults_batch:
            return []
        if detection is None:
            detection = self.scheme.default_detection
        use_sparse = self.scheme.supports_sparse if sparse is None else sparse
        if use_sparse:
            if not self.scheme.supports_sparse:
                raise ConfigurationError(
                    f"scheme {self.scheme.name!r} has no sparse "
                    f"re-reduction path; call with sparse=False or None"
                )
            if sites is None:
                sites = faulted_site_values(self.c_clean, faults_batch)
            elif sites.n_trials != len(faults_batch):
                raise ConfigurationError(
                    f"precomputed sites cover {sites.n_trials} trials, "
                    f"batch has {len(faults_batch)}"
                )
            return self.scheme._finish_batch_sparse(
                self, sites, faults_batch, detection
            )
        c_batch = Scheme._apply_original_faults_batch(
            self.c_clean, faults_batch, out=out
        )
        return self.scheme._finish_batch(self, c_batch, faults_batch, detection)


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
    ``EXECUTION_STATS``.  Lazily built sparse-path state
    (:attr:`PreparedExecution.clean_reductions`, the per-constants
    ``CleanComparison``) lives on the shared entry too, so later
    campaigns skip even that.

    Entries stand in for their operands exactly like any prepared plan:
    the digest is taken at :meth:`get` time, so *mutating* an operand
    array after a hit was cached is safe (the new content digests
    differently) — but the cached state must not be mutated by
    consumers, which no engine path does.

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

    @staticmethod
    def _digest(arr: np.ndarray) -> bytes:
        """Content digest of one operand (dtype, shape, and bytes)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
        return h.digest()

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
        :meth:`Scheme.prepare` would, so a miss prepared through the
        weight-side state and a plain hit resolve to the same entry.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if tile is None and weights is not None:
            tile = weights.tile
        if tile is None and a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0]:
            tile = select_tile(GemmProblem(a.shape[0], b.shape[1], a.shape[1]))
        return (scheme.cache_token, self._digest(a), self._digest(b), tile)

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
    /batched/sparse machinery is dtype-generic; the pipeline only
    changes the executor, the accumulator dtype, and the default
    detection constants.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether the scheme performs any checking at all.
    protects: bool = True

    #: Whether the scheme implements sparse re-reduction — a
    #: slice-decomposable output check whose struck slices can be
    #: recomputed alone (:meth:`_finish_batch_sparse`).  Schemes whose
    #: check is elementwise over the full output (replication) or
    #: nonexistent (none) leave this False and always run dense.
    supports_sparse: bool = False

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
        problem, chosen, executor, a_pad, b_pad, c_clean = self._setup(
            a, b, tile, weights
        )
        state = self._prepare_state(
            executor, a_pad, b_pad, c_clean,
            weights.weight_state if weights is not None else None,
        )
        return PreparedExecution(
            self, problem, chosen, executor, a_pad, b_pad, c_clean, state
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
        b_pad = executor.pad_b(b)
        return PreparedWeights(
            scheme=self.name,
            k=k,
            n=n,
            tile=tile,
            b_pad=b_pad,
            weight_state=self._prepare_weight_state(executor, b_pad),
            b_scale=executor.b_scale if self.dtype == "int8" else None,
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

    def _finish(
        self,
        prepared: PreparedExecution,
        c_faulty: np.ndarray,
        faults: tuple[FaultSpec, ...],
        detection: DetectionConstants,
    ) -> ExecutionOutcome:
        """Single-trial wrapper over :meth:`_finish_batch` (``N == 1``)."""
        return self._finish_batch(prepared, c_faulty[None], (faults,), detection)[0]

    @abc.abstractmethod
    def _finish_batch(
        self,
        prepared: PreparedExecution,
        c_batch: np.ndarray,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        detection: DetectionConstants,
    ) -> list[ExecutionOutcome]:
        """Apply checksum-path faults, re-reduce the output side of all
        trials in batch-wide NumPy calls, render every verdict.  Must
        not mutate ``prepared`` (state is shared across trials);
        ``c_batch`` — one ``(m_full, n_full)`` slice per trial, original
        -path faults already applied — is the batch's own copy.  Slice
        ``i`` of the result must be bit-identical to an ``N == 1`` call
        on trial ``i`` alone (use elementwise ops and the batch-aware
        reducers in :mod:`repro.abft.checksums`, which guarantee it)."""

    def _clean_output_reductions(self, prepared: PreparedExecution) -> Any:
        """Clean output-side check arrays backing sparse splicing.

        Sparse-capable schemes return the reduction of the *clean*
        accumulator that the sparse engine splices struck slices into
        (cached on the prepared state by
        :attr:`PreparedExecution.clean_reductions`).
        """
        raise NotImplementedError(
            f"scheme {self.name!r} has no sparse re-reduction path"
        )

    def _clean_comparison_inputs(
        self, prepared: PreparedExecution
    ) -> tuple[np.ndarray, np.ndarray, int, Any]:
        """``(checksum_side, output_side, n_terms, magnitudes)`` of the
        clean comparison — the same four quantities the scheme's dense
        ``_verdicts`` feeds :func:`~repro.abft.detection.
        compare_checksums_batch`, evaluated on the clean state."""
        raise NotImplementedError(
            f"scheme {self.name!r} has no sparse re-reduction path"
        )

    def _struck_checks(
        self, prepared: PreparedExecution, sites: FaultSites
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(trials, checks, values)`` of every struck check.

        One entry per unique (trial, flat check index) pair in
        trial-major order, ``values`` holding the re-reduced output
        -side check value (the ``*_struck_*`` reducers in
        :mod:`repro.abft.checksums`)."""
        raise NotImplementedError(
            f"scheme {self.name!r} has no sparse re-reduction path"
        )

    def _sparse_output_reduction(
        self, prepared: PreparedExecution, sites: FaultSites
    ) -> np.ndarray:
        """Full per-trial output-side check arrays, spliced sparsely.

        The ``splice_*`` reducers in :mod:`repro.abft.checksums`: the
        dense-shaped arrays the engine's fallback needs for trials
        whose checksum side was corrupted."""
        raise NotImplementedError(
            f"scheme {self.name!r} has no sparse re-reduction path"
        )

    def _references_batch(
        self,
        prepared: PreparedExecution,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
    ) -> np.ndarray:
        """Per-trial checksum-side values, checksum-path faults applied."""
        raise NotImplementedError(
            f"scheme {self.name!r} has no batched reference builder"
        )

    def _verdicts(
        self,
        prepared: PreparedExecution,
        references: np.ndarray,
        output_side: np.ndarray,
        detection: DetectionConstants,
    ) -> list[CheckVerdict]:
        """Dense verdicts for prepared references vs output reductions."""
        raise NotImplementedError(
            f"scheme {self.name!r} has no batched verdict renderer"
        )

    def _walk_verdicts(
        self,
        prepared: PreparedExecution,
        output_side: np.ndarray,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        detection: DetectionConstants,
    ) -> list[CheckVerdict]:
        """Dense verdict rendering through the ``CleanComparison`` walk.

        A single-site fault perturbs a handful of checks, so a dense
        trial's re-reduced check array differs from the clean one in
        only a few entries: one elementwise comparison finds them, and
        :func:`~repro.abft.detection.compare_checksums_sparse` renders
        each verdict from those entries plus the cached clean
        comparison — bit-identical, field for field, to the full
        batched comparison (pinned by the dense-walk equivalence test).
        Trials with checksum-path faults have no clean checksum side to
        reuse; they take the full comparison.
        """
        n = len(faults_batch)
        corrupted = [
            i for i, faults in enumerate(faults_batch)
            if self._checksum_faults(faults)
        ]
        clean = prepared.clean_comparison(detection)
        clean_out = np.asarray(
            self._clean_comparison_inputs(prepared)[1]
        ).reshape(1, -1)
        out = np.asarray(output_side)
        flat = out.reshape(n, -1)
        # NaN output entries always register as changed (NaN != NaN);
        # their residuals are re-rendered fresh, matching the dense
        # comparison's non-finite handling.
        with np.errstate(invalid="ignore"):
            trials_idx, checks_idx = np.nonzero(flat != clean_out)
        verdicts = compare_checksums_sparse(
            clean,
            trials_idx,
            checks_idx,
            flat[trials_idx, checks_idx],
            n_trials=n,
            skip=corrupted,
        )
        if corrupted:
            sub_faults = [faults_batch[i] for i in corrupted]
            references = self._references_batch(prepared, sub_faults)
            dense = self._verdicts(
                prepared, references, out[corrupted], detection
            )
            for i, verdict in zip(corrupted, dense):
                verdicts[i] = verdict
        return verdicts

    def _finish_batch_sparse(
        self,
        prepared: PreparedExecution,
        sites: FaultSites,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        detection: DetectionConstants,
    ) -> list[ExecutionOutcome]:
        """Sparse counterpart of :meth:`_finish_batch` (engine template).

        Never materializes per-trial accumulators or check arrays:
        struck checks are re-reduced alone (:meth:`_struck_checks`, in
        the dense composition order) and verdicts assembled against the
        cached clean comparison — field-for-field bit-identical to
        :meth:`_finish_batch`, pinned by the sparse-equivalence
        hypothesis suite.  Trials whose *checksum side* was corrupted
        (checksum-path faults) have no clean half to compare against;
        they fall back to the dense comparison on sparsely spliced
        check arrays (:meth:`_sparse_output_reduction`), still without
        touching an accumulator stack.
        """
        corrupted = [
            i for i, faults in enumerate(faults_batch)
            if self._checksum_faults(faults)
        ]
        trials, checks, values = self._struck_checks(prepared, sites)
        verdicts = compare_checksums_sparse(
            prepared.clean_comparison(detection),
            trials, checks, values,
            n_trials=len(faults_batch),
            skip=corrupted,
        )
        if corrupted:
            sub_sites = subset_sites(sites, corrupted)
            sub_faults = [faults_batch[i] for i in corrupted]
            references = self._references_batch(prepared, sub_faults)
            output_side = self._sparse_output_reduction(prepared, sub_sites)
            dense_verdicts = self._verdicts(
                prepared, references, output_side, detection
            )
            for i, verdict in zip(corrupted, dense_verdicts):
                verdicts[i] = verdict
        return self._outcome_batch_sparse(prepared, verdicts, faults_batch)

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    def _setup(
        self,
        a: np.ndarray,
        b: np.ndarray,
        tile: TileConfig | None,
        weights: PreparedWeights | None = None,
    ) -> tuple[GemmProblem, TileConfig, TiledGemm, np.ndarray, np.ndarray, np.ndarray]:
        """Validate operands, pick a tile, execute the clean GEMM."""
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
            chosen = weights.tile
            executor = executor_for(problem, chosen, self.dtype)
            if weights.b_scale is not None:
                # b is never re-read through prepared weights, so the
                # quantization scale must travel with the padded bytes.
                executor.b_scale = weights.b_scale
            b_pad = weights.b_pad
        else:
            chosen = tile if tile is not None else select_tile(problem)
            executor = executor_for(problem, chosen, self.dtype)
            b_pad = executor.pad_b(b)
        a_pad = executor.pad_a(a)
        c_clean = executor.multiply(a_pad, b_pad)
        return problem, chosen, executor, a_pad, b_pad, c_clean

    def _outcome_batch(
        self,
        prepared: PreparedExecution,
        c_batch: np.ndarray,
        verdicts: Sequence[CheckVerdict | None],
        faults_batch: Sequence[tuple[FaultSpec, ...]],
    ) -> list[ExecutionOutcome]:
        """Assemble the outcome records every ``_finish_batch`` returns.

        Per-trial ``c_accumulator`` values are views into the stacked
        batch array (trial slices are disjoint, so they stay
        independent); the FP16 ``c`` is quantized lazily per outcome.
        """
        crop = (prepared.problem.m, prepared.problem.n)
        return [
            ExecutionOutcome(
                scheme=self.name,
                c_accumulator=c_batch[i],
                verdict=verdicts[i],
                injected=faults_batch[i],
                crop=crop,
                epilogue=prepared.executor.epilogue,
            )
            for i in range(len(faults_batch))
        ]

    def _outcome_batch_sparse(
        self,
        prepared: PreparedExecution,
        verdicts: Sequence[CheckVerdict | None],
        faults_batch: Sequence[tuple[FaultSpec, ...]],
    ) -> list[ExecutionOutcome]:
        """Outcome records for a sparse batch: lazy accumulators.

        No stacked accumulator exists on the sparse path, so each
        outcome carries a factory that materializes its padded grid on
        first access (clean copy + the trial's original-path faults in
        spec order — bit-identical to the dense batch's slice, pinned
        by the injector equivalence properties).
        """
        crop = (prepared.problem.m, prepared.problem.n)
        c_clean = prepared.c_clean
        return [
            ExecutionOutcome(
                scheme=self.name,
                c_accumulator=None,
                verdict=verdicts[i],
                injected=faults_batch[i],
                crop=crop,
                acc_factory=_accumulator_factory(c_clean, faults_batch[i]),
                epilogue=prepared.executor.epilogue,
            )
            for i in range(len(faults_batch))
        ]

    @staticmethod
    def _apply_original_faults_batch(
        c_clean: np.ndarray,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stacked copies of the accumulator with original-path faults.

        One vectorized N-way copy (into ``out`` when provided), then one
        :func:`apply_fault_batch` call per ordering step: step ``j``
        applies the ``j``-th original-path fault of every trial that has
        one, preserving the sequential per-trial application order while
        keeping the common single-fault campaign at exactly one
        fancy-indexed call.
        """
        from ..faults.injector import apply_fault_batch

        shape = (len(faults_batch), *c_clean.shape)
        if out is None:
            c_batch = np.empty(shape, dtype=c_clean.dtype)
        else:
            if out.shape != shape or out.dtype != c_clean.dtype:
                raise ShapeError(
                    f"batch scratch must be {shape} {c_clean.dtype}, "
                    f"got {out.shape} {out.dtype}"
                )
            c_batch = out
        c_batch[:] = c_clean
        originals = [
            [s for s in faults if s.path is FaultPath.ORIGINAL]
            for faults in faults_batch
        ]
        for step in range(max((len(fs) for fs in originals), default=0)):
            trials = [i for i, fs in enumerate(originals) if len(fs) > step]
            apply_fault_batch(
                c_batch,
                np.asarray(trials, dtype=np.intp),
                [originals[i][step] for i in trials],
            )
        return c_batch

    @staticmethod
    def _checksum_faults(faults: Iterable[FaultSpec]) -> list[FaultSpec]:
        return [f for f in faults if f.path is FaultPath.CHECKSUM]

    @staticmethod
    def _to_fp16(values: np.ndarray) -> np.ndarray:
        """Quantize the epilogue output to FP16 storage.

        Faults can push accumulator values past the FP16 range; the
        resulting inf is the value the hardware would store, so the
        overflow is expected rather than a numerical error.
        """
        with np.errstate(over="ignore"):
            return values.astype(np.float16)


def _accumulator_factory(
    c_clean: np.ndarray, faults: tuple[FaultSpec, ...]
) -> Callable[[], np.ndarray]:
    """Deferred materialization of one sparse trial's faulted accumulator."""

    def materialize() -> np.ndarray:
        acc = c_clean.copy()
        for spec in faults:
            if spec.path is FaultPath.ORIGINAL:
                apply_fault_to_accumulator(acc, spec)
        return acc

    return materialize

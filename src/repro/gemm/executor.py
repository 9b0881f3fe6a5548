"""Numeric hierarchical GEMM executor.

Executes an FP16 GEMM over the same decomposition the cost model counts:
operands are padded to whole thread tiles, accumulation happens in FP32
in chunks of the MMA K-extent (8), and the result is exposed both as the
padded FP32 accumulator grid (what ABFT checks and fault injection
operate on) and as the cropped logical output.

The per-scalar triple loop of ``gemm.mma.gemm_by_mma`` defines the
semantics; this executor vectorizes them with NumPy (see the HPC guides:
vectorize, avoid copies, accumulate in place).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError
from ..utils import ceil_div, round_up
from .problem import GemmProblem
from .tiles import MMA_K, TileConfig


@dataclass
class ExecutionStats:
    """Process-wide counters of fault-invariant numeric work.

    The prepared-execution engine exists to amortize exactly this work
    across fault trials and forward passes; these counters let tests and
    benchmarks *prove* the amortization (e.g. "a campaign of N trials
    runs the clean GEMM once") instead of inferring it from timings.

    Attributes
    ----------
    gemms:
        Clean padded FP32-accumulated GEMMs (:meth:`TiledGemm.multiply`).
    weight_reductions:
        Weight-side (``B``) checksum reduction builds.
    activation_reductions:
        Activation-side (``A``) checksum reduction builds.
    """

    gemms: int = 0
    weight_reductions: int = 0
    activation_reductions: int = 0

    def reset(self) -> None:
        """Zero all counters (call at the start of a measured region)."""
        self.gemms = 0
        self.weight_reductions = 0
        self.activation_reductions = 0

    def snapshot(self) -> tuple[int, int, int]:
        """Current ``(gemms, weight_reductions, activation_reductions)``."""
        return (self.gemms, self.weight_reductions, self.activation_reductions)


#: Module-level stats instance every executor and checksum build reports to.
EXECUTION_STATS = ExecutionStats()

#: Bound on the FP32 partial products one stacked call of
#: :meth:`TiledGemm.multiply` holds (``r x n_full`` per K-chunk): a
#: GEMM whose one chunk already fills it runs one chunk per call.
CHUNK_STACK_FLOATS = 1 << 16


@dataclass(frozen=True)
class TiledGemm:
    """Numeric executor for one (problem, tile configuration) pair.

    Immutable, so a cached prepared state's executor is safe to share:
    padding returns each operand's quantization scale beside the
    padded bytes, and the epilogue takes the product of the two scales
    as an argument.  No execution stores anything on the executor.

    Attributes
    ----------
    problem:
        Logical GEMM dimensions.
    tile:
        Tile configuration; the executor pads the operands to whole
        thread tiles so every thread owns a full ``Mt x Nt`` fragment.
    m_tiles, n_tiles, m_full, n_full, k_full:
        Thread-tile counts and padded extents (``k_full`` a multiple of
        the MMA K-extent).  Derived once at construction; they take no
        part in equality, hashing or ``repr``.
    """

    #: Operand dtype token: ``"fp16"`` here, ``"int8"`` on the quantized
    #: subclass.  Schemes key caches and pick detection constants by it.
    dtype = "fp16"
    #: NumPy storage dtype of a padded operand.
    storage = np.float16

    problem: GemmProblem
    tile: TileConfig
    m_tiles: int = field(init=False, compare=False, repr=False)
    n_tiles: int = field(init=False, compare=False, repr=False)
    m_full: int = field(init=False, compare=False, repr=False)
    n_full: int = field(init=False, compare=False, repr=False)
    k_full: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Pad to whole thread tiles (>= the pad-to-8 execution padding).
        m_tiles = ceil_div(self.problem.m_pad, self.tile.mt)
        n_tiles = ceil_div(self.problem.n_pad, self.tile.nt)
        object.__setattr__(self, "m_tiles", m_tiles)
        object.__setattr__(self, "n_tiles", n_tiles)
        object.__setattr__(self, "m_full", m_tiles * self.tile.mt)
        object.__setattr__(self, "n_full", n_tiles * self.tile.nt)
        object.__setattr__(self, "k_full", round_up(self.problem.k_pad, MMA_K))

    # ------------------------------------------------------------------
    # Operand handling
    # ------------------------------------------------------------------
    def quantize(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """``x`` in the operand storage dtype, and the scale that
        dequantizes it: the FP16 cast and scale 1.0 here."""
        return x.astype(np.float16), 1.0

    def pad_a(self, a: np.ndarray) -> tuple[np.ndarray, float]:
        """``A`` quantized and zero-padded to ``(m_full, k_full)``, with its scale."""
        if a.shape != (self.problem.m, self.problem.k):
            raise ShapeError(
                f"A must be {self.problem.m}x{self.problem.k}, got {a.shape}"
            )
        return self._pad(a, self.m_full, self.k_full)

    def pad_b(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """``B`` quantized and zero-padded to ``(k_full, n_full)``, with its scale."""
        if b.shape != (self.problem.k, self.problem.n):
            raise ShapeError(
                f"B must be {self.problem.k}x{self.problem.n}, got {b.shape}"
            )
        return self._pad(b, self.k_full, self.n_full)

    def pad_rows(self, a: np.ndarray) -> tuple[np.ndarray, float]:
        """Any ``r`` rows of ``A`` (``1 <= r <= m``) quantized and
        zero-padded to ``(r, k_full)``, with their scale.

        The FP16 cast quantizes each element alone, so these are the
        bytes :meth:`pad_a` gives the same rows of the whole ``A``.  An
        INT8 scale reads every row it is given, so on INT8 they are
        not, and a propagation replay pads INT8 activations whole.
        """
        if a.ndim != 2 or a.shape[1] != self.problem.k or not 1 <= len(a) <= self.problem.m:
            raise ShapeError(
                f"A rows must be r x {self.problem.k} with 1 <= r <= "
                f"{self.problem.m}, got {a.shape}"
            )
        return self._pad(a, len(a), self.k_full)

    def _pad(self, x: np.ndarray, rows: int, cols: int) -> tuple[np.ndarray, float]:
        # The zeroed buffer comes first and the quantized operand second:
        # the reverse order leaves the heap measurably larger.
        out = np.zeros((rows, cols), dtype=self.storage)
        quantized, scale = self.quantize(x)
        out[: x.shape[0], : x.shape[1]] = quantized
        return out, scale

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _check_padded(self, a_pad: np.ndarray, b_pad: np.ndarray) -> None:
        """Reject operands :meth:`multiply` cannot take: ``A`` must be
        ``r`` padded rows (``1 <= r <= m_full``) and ``B`` the whole
        padded weight matrix."""
        if (
            a_pad.ndim != 2
            or a_pad.shape[1] != self.k_full
            or not 1 <= a_pad.shape[0] <= self.m_full
        ):
            raise ShapeError(
                f"padded A must be r x {self.k_full} with 1 <= r <= "
                f"{self.m_full}, got {a_pad.shape}"
            )
        if b_pad.shape != (self.k_full, self.n_full):
            raise ShapeError(f"padded B must be {self.k_full}x{self.n_full}")

    def multiply(self, a_pad: np.ndarray, b_pad: np.ndarray) -> np.ndarray:
        """FP32-accumulated product of padded FP16 operands.

        Accumulates chunk-by-chunk along K (chunk = the MMA K-extent)
        into a single FP32 accumulator, mirroring the sequential MMA
        accumulation of the hardware mainloop.  Consecutive chunks'
        ``(r x 8) @ (8 x n_full)`` products run as one stacked
        ``np.matmul`` call, each stack element the same BLAS call a
        chunk alone makes, and are added into the accumulator in chunk
        order; a group holds at most :data:`CHUNK_STACK_FLOATS` partial
        products (at least one chunk).  An operand may arrive already
        widened to FP32 (exact for FP16 values); it is then used as is,
        not copied.

        ``a_pad`` is any ``r`` rows of the padded ``A``, ``1 <= r <=
        m_full`` — all of them as :meth:`pad_a` returns them, or the
        rows a propagation replay recomputes — and the accumulator has
        one row per ``A`` row.  Accumulator row ``i`` reads only row
        ``i`` of ``A``; that its bits do not depend on which other rows
        share the call is a property of the host's matmul, which a
        :class:`~repro.faults.PropagationCampaign` checks at
        construction (with ``verify_recovery`` on) before relying on it.
        """
        self._check_padded(a_pad, b_pad)
        EXECUTION_STATS.gemms += 1
        rows, chunks = len(a_pad), self.k_full // MMA_K
        # Chunk c of each operand as element c of a stack: views with
        # the strides of the chunk's own slice, so no copy is made.
        a_chunks = a_pad.astype(np.float32, copy=False).reshape(rows, chunks, MMA_K)
        a_chunks = a_chunks.transpose(1, 0, 2)
        b_chunks = b_pad.astype(np.float32, copy=False).reshape(chunks, MMA_K, self.n_full)
        group = min(chunks, max(1, CHUNK_STACK_FLOATS // (rows * self.n_full)))
        acc = np.zeros((rows, self.n_full), dtype=np.float32)
        # One buffer serves every group: a fresh product per group would
        # be allocated while the last one is still held.
        partials = np.empty((group, rows, self.n_full), dtype=np.float32)
        # Operands struck by an exponent-bit flip carry inf/NaN; the
        # overflowing or NaN accumulator is the hardware's value, as in
        # the epilogue, so it is not warned about.
        with np.errstate(invalid="ignore", over="ignore"):
            for c0 in range(0, chunks, group):
                stop = min(c0 + group, chunks)
                products = partials[: stop - c0]
                np.matmul(a_chunks[c0:stop], b_chunks[c0:stop], out=products)
                for partial in products:
                    acc += partial
        return acc

    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pad, execute, and return the padded accumulator grid; the
        operand scales :meth:`epilogue` needs on INT8 are dropped."""
        return self.multiply(self.pad_a(a)[0], self.pad_b(b)[0])

    def epilogue(self, values: np.ndarray, scale: float) -> np.ndarray:
        """Lower accumulator values to the logical FP16 output domain.

        ``scale`` is the product of the two operand scales that
        :meth:`pad_a` and :meth:`pad_b` returned.  The FP16 pipeline's
        scales are 1.0 and its epilogue is the plain FP32 -> FP16
        downcast (overflow saturates to ``inf`` exactly as a GPU store
        would); the INT8 pipeline overrides this with the dequantizing
        rescale.
        """
        with np.errstate(over="ignore"):
            return values.astype(np.float16)

    def crop(self, c_pad: np.ndarray) -> np.ndarray:
        """Slice the logical ``M x N`` output out of the padded grid."""
        return c_pad[: self.problem.m, : self.problem.n]

    # ------------------------------------------------------------------
    # Thread-tile views (used by thread-level ABFT checks)
    # ------------------------------------------------------------------
    def thread_tile_view(self, c_pad: np.ndarray) -> np.ndarray:
        """View of ``C`` as ``(m_tiles, mt, n_tiles, nt)`` thread fragments."""
        if c_pad.shape != (self.m_full, self.n_full):
            raise ShapeError(
                f"padded C must be {self.m_full}x{self.n_full}, got {c_pad.shape}"
            )
        return c_pad.reshape(self.m_tiles, self.tile.mt, self.n_tiles, self.tile.nt)

    def thread_tile_view_batch(self, c_batch: np.ndarray) -> np.ndarray:
        """Stacked grids as ``(N, m_tiles, mt, n_tiles, nt)`` fragments."""
        if c_batch.ndim != 3 or c_batch.shape[1:] != (self.m_full, self.n_full):
            raise ShapeError(
                f"stacked padded C must be (N, {self.m_full}, {self.n_full}), "
                f"got {c_batch.shape}"
            )
        return c_batch.reshape(
            len(c_batch), self.m_tiles, self.tile.mt, self.n_tiles, self.tile.nt
        )


@dataclass(frozen=True)
class Int8TiledGemm(TiledGemm):
    """INT8 quantized executor: INT8 operands, INT32 accumulation.

    Quantization is symmetric per-tensor (scale = max|x| / 127, no zero
    point — a zero point would break the linearity the checksum
    invariants rely on).  ``pad_a`` / ``pad_b`` return each quantized
    operand with its scale; ``multiply`` accumulates the quantized
    product exactly in INT32; ``epilogue`` dequantizes by the product
    of the two scales back to the FP16 output domain.

    Exactness: every INT32 partial product is ``<= k * 127 * 127``,
    far inside the INT32 range for the shapes this repo models, so the
    quantized accumulator is *exact* integer arithmetic — which is what
    lets the INT8 detection tolerance collapse to a half-ULP constant.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gemm import GemmProblem, Int8TiledGemm, select_tile
    >>> problem = GemmProblem(m=8, n=8, k=8)
    >>> gemm = Int8TiledGemm(problem, select_tile(problem))
    >>> a_pad, a_scale = gemm.pad_a(np.full((8, 8), 0.5, dtype=np.float16))
    >>> b_pad, b_scale = gemm.pad_b(np.full((8, 8), 0.5, dtype=np.float16))
    >>> acc = gemm.multiply(a_pad, b_pad)
    >>> acc.dtype
    dtype('int32')
    >>> float(gemm.epilogue(gemm.crop(acc), a_scale * b_scale)[0, 0])
    2.0
    """

    dtype = "int8"
    storage = np.int8

    @staticmethod
    def scale_for(x: np.ndarray) -> float:
        """Symmetric per-tensor scale: ``max|x| / 127`` (1.0 if all-zero)."""
        peak = float(np.max(np.abs(np.asarray(x, dtype=np.float32))))
        return peak / 127.0 if peak > 0.0 else 1.0

    def quantize(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """``x`` quantized symmetrically to INT8, and its scale."""
        scale = self.scale_for(x)
        scaled = np.asarray(x, dtype=np.float32) / np.float32(scale)
        return np.clip(np.rint(scaled), -127, 127).astype(np.int8), scale

    def multiply(self, a_pad: np.ndarray, b_pad: np.ndarray) -> np.ndarray:
        """Exact INT32-accumulated product of padded INT8 operands.

        An operand already widened to INT32 is used as is, not copied.
        ``a_pad`` is any ``r`` padded rows, ``1 <= r <= m_full``, as on
        :meth:`TiledGemm.multiply`; integer accumulation is exact, so a
        row's accumulator never depends on the rows beside it.
        """
        self._check_padded(a_pad, b_pad)
        EXECUTION_STATS.gemms += 1
        a32 = a_pad.astype(np.int32, copy=False)
        b32 = b_pad.astype(np.int32, copy=False)
        acc = np.zeros((len(a_pad), self.n_full), dtype=np.int32)
        for k0 in range(0, self.k_full, MMA_K):
            acc += a32[:, k0:k0 + MMA_K] @ b32[k0:k0 + MMA_K, :]
        return acc

    def epilogue(self, values: np.ndarray, scale: float) -> np.ndarray:
        """Dequantize INT32 accumulator values by ``scale``, the product
        of the operand scales, to the FP16 output domain."""
        with np.errstate(over="ignore"):
            return (values.astype(np.float32) * np.float32(scale)).astype(np.float16)


def executor_for(
    problem: GemmProblem, tile: TileConfig, dtype: str = "fp16"
) -> TiledGemm:
    """Executor for ``dtype``: :class:`TiledGemm` or :class:`Int8TiledGemm`.

    Examples
    --------
    >>> from repro.gemm import GemmProblem, executor_for, select_tile
    >>> problem = GemmProblem(m=8, n=8, k=8)
    >>> executor_for(problem, select_tile(problem), "int8").dtype
    'int8'
    """
    if dtype == "fp16":
        return TiledGemm(problem, tile)
    if dtype == "int8":
        return Int8TiledGemm(problem, tile)
    raise ShapeError(f"unknown executor dtype {dtype!r} (expected fp16|int8)")

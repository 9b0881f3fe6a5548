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

from dataclasses import dataclass

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


class TiledGemm:
    """Numeric executor for one (problem, tile configuration) pair.

    Parameters
    ----------
    problem:
        Logical GEMM dimensions.
    tile:
        Tile configuration; the executor pads the operands to whole
        thread tiles so every thread owns a full ``Mt x Nt`` fragment.
    k_chunk:
        Accumulation chunk along K in elements; defaults to the MMA
        K-extent (8) for Tensor-Core-faithful accumulation ordering.
    """

    #: Operand dtype token: ``"fp16"`` here, ``"int8"`` on the quantized
    #: subclass.  Schemes key caches and pick detection constants by it.
    dtype = "fp16"

    def __init__(
        self,
        problem: GemmProblem,
        tile: TileConfig,
        *,
        k_chunk: int = MMA_K,
    ) -> None:
        if k_chunk <= 0 or k_chunk % MMA_K:
            raise ShapeError(f"k_chunk must be a positive multiple of {MMA_K}")
        self.problem = problem
        self.tile = tile
        self.k_chunk = k_chunk
        # Pad to whole thread tiles (>= the pad-to-8 execution padding).
        self.m_tiles = ceil_div(problem.m_pad, tile.mt)
        self.n_tiles = ceil_div(problem.n_pad, tile.nt)
        self.m_full = self.m_tiles * tile.mt
        self.n_full = self.n_tiles * tile.nt
        self.k_full = round_up(problem.k_pad, MMA_K)

    # ------------------------------------------------------------------
    # Operand handling
    # ------------------------------------------------------------------
    def pad_a(self, a: np.ndarray) -> np.ndarray:
        """Zero-pad ``A`` to ``(m_full, k_full)`` and quantize to FP16."""
        if a.shape != (self.problem.m, self.problem.k):
            raise ShapeError(
                f"A must be {self.problem.m}x{self.problem.k}, got {a.shape}"
            )
        out = np.zeros((self.m_full, self.k_full), dtype=np.float16)
        out[: a.shape[0], : a.shape[1]] = a.astype(np.float16)
        return out

    def pad_b(self, b: np.ndarray) -> np.ndarray:
        """Zero-pad ``B`` to ``(k_full, n_full)`` and quantize to FP16."""
        if b.shape != (self.problem.k, self.problem.n):
            raise ShapeError(
                f"B must be {self.problem.k}x{self.problem.n}, got {b.shape}"
            )
        out = np.zeros((self.k_full, self.n_full), dtype=np.float16)
        out[: b.shape[0], : b.shape[1]] = b.astype(np.float16)
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def multiply(self, a_pad: np.ndarray, b_pad: np.ndarray) -> np.ndarray:
        """FP32-accumulated product of padded FP16 operands.

        Accumulates chunk-by-chunk along K (chunk = ``k_chunk``) into a
        single FP32 accumulator, mirroring the sequential MMA
        accumulation of the hardware mainloop.
        """
        if a_pad.shape != (self.m_full, self.k_full):
            raise ShapeError(f"padded A must be {self.m_full}x{self.k_full}")
        if b_pad.shape != (self.k_full, self.n_full):
            raise ShapeError(f"padded B must be {self.k_full}x{self.n_full}")
        EXECUTION_STATS.gemms += 1
        a32 = a_pad.astype(np.float32)
        b32 = b_pad.astype(np.float32)
        acc = np.zeros((self.m_full, self.n_full), dtype=np.float32)
        # Operands struck by an exponent-bit flip carry inf/NaN; the
        # overflowing or NaN accumulator is the hardware's value, as in
        # the epilogue, so it is not warned about.
        with np.errstate(invalid="ignore", over="ignore"):
            for k0 in range(0, self.k_full, self.k_chunk):
                k1 = min(k0 + self.k_chunk, self.k_full)
                # In-place accumulate: no temporary C-sized copies per chunk.
                acc += a32[:, k0:k1] @ b32[k0:k1, :]
        return acc

    def run(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pad, execute, and return the padded FP32 accumulator grid."""
        return self.multiply(self.pad_a(a), self.pad_b(b))

    def epilogue(self, values: np.ndarray) -> np.ndarray:
        """Lower accumulator values to the logical FP16 output domain.

        The FP16 pipeline's epilogue is the plain FP32 -> FP16 downcast
        (overflow saturates to ``inf`` exactly as a GPU store would); the
        INT8 pipeline overrides this with the dequantizing rescale.
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
        self._check_batch(c_batch)
        return c_batch.reshape(
            len(c_batch), self.m_tiles, self.tile.mt, self.n_tiles, self.tile.nt
        )

    def _check_batch(self, c_batch: np.ndarray) -> None:
        if c_batch.ndim != 3 or c_batch.shape[1:] != (self.m_full, self.n_full):
            raise ShapeError(
                f"stacked padded C must be (N, {self.m_full}, {self.n_full}), "
                f"got {c_batch.shape}"
            )

    def tile_of_element(self, row: int, col: int) -> tuple[int, int]:
        """Thread-tile grid coordinates owning output element (row, col)."""
        if not (0 <= row < self.m_full and 0 <= col < self.n_full):
            raise ShapeError(
                f"element ({row}, {col}) outside padded output "
                f"{self.m_full}x{self.n_full}"
            )
        return row // self.tile.mt, col // self.tile.nt


class Int8TiledGemm(TiledGemm):
    """INT8 quantized executor: INT8 operands, INT32 accumulation.

    Quantization is symmetric per-tensor (scale = max|x| / 127, no zero
    point — a zero point would break the linearity the checksum
    invariants rely on).  ``pad_a`` / ``pad_b`` quantize and record the
    operand scale; ``multiply`` accumulates the quantized product
    exactly in INT32; ``epilogue`` dequantizes by ``a_scale * b_scale``
    back to the FP16 output domain.

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
    >>> a = np.full((8, 8), 0.5, dtype=np.float16)
    >>> acc = gemm.run(a, a)
    >>> acc.dtype
    dtype('int32')
    >>> float(gemm.epilogue(gemm.crop(acc))[0, 0])
    2.0
    """

    dtype = "int8"

    def __init__(
        self,
        problem: GemmProblem,
        tile: TileConfig,
        *,
        k_chunk: int = MMA_K,
    ) -> None:
        super().__init__(problem, tile, k_chunk=k_chunk)
        self.a_scale = 1.0
        self.b_scale = 1.0

    @staticmethod
    def scale_for(x: np.ndarray) -> float:
        """Symmetric per-tensor scale: ``max|x| / 127`` (1.0 if all-zero)."""
        peak = float(np.max(np.abs(np.asarray(x, dtype=np.float32))))
        return peak / 127.0 if peak > 0.0 else 1.0

    def _quantize(self, x: np.ndarray, scale: float) -> np.ndarray:
        scaled = np.asarray(x, dtype=np.float32) / np.float32(scale)
        return np.clip(np.rint(scaled), -127, 127).astype(np.int8)

    def pad_a(self, a: np.ndarray) -> np.ndarray:
        """Zero-pad ``A`` to ``(m_full, k_full)`` and quantize to INT8."""
        if a.shape != (self.problem.m, self.problem.k):
            raise ShapeError(
                f"A must be {self.problem.m}x{self.problem.k}, got {a.shape}"
            )
        self.a_scale = self.scale_for(a)
        out = np.zeros((self.m_full, self.k_full), dtype=np.int8)
        out[: a.shape[0], : a.shape[1]] = self._quantize(a, self.a_scale)
        return out

    def pad_b(self, b: np.ndarray) -> np.ndarray:
        """Zero-pad ``B`` to ``(k_full, n_full)`` and quantize to INT8."""
        if b.shape != (self.problem.k, self.problem.n):
            raise ShapeError(
                f"B must be {self.problem.k}x{self.problem.n}, got {b.shape}"
            )
        self.b_scale = self.scale_for(b)
        out = np.zeros((self.k_full, self.n_full), dtype=np.int8)
        out[: b.shape[0], : b.shape[1]] = self._quantize(b, self.b_scale)
        return out

    def multiply(self, a_pad: np.ndarray, b_pad: np.ndarray) -> np.ndarray:
        """Exact INT32-accumulated product of padded INT8 operands."""
        if a_pad.shape != (self.m_full, self.k_full):
            raise ShapeError(f"padded A must be {self.m_full}x{self.k_full}")
        if b_pad.shape != (self.k_full, self.n_full):
            raise ShapeError(f"padded B must be {self.k_full}x{self.n_full}")
        EXECUTION_STATS.gemms += 1
        a32 = a_pad.astype(np.int32)
        b32 = b_pad.astype(np.int32)
        acc = np.zeros((self.m_full, self.n_full), dtype=np.int32)
        for k0 in range(0, self.k_full, self.k_chunk):
            k1 = min(k0 + self.k_chunk, self.k_full)
            acc += a32[:, k0:k1] @ b32[k0:k1, :]
        return acc

    def epilogue(self, values: np.ndarray) -> np.ndarray:
        """Dequantize INT32 accumulator values to the FP16 output domain."""
        scale = np.float32(self.a_scale * self.b_scale)
        with np.errstate(over="ignore"):
            return (values.astype(np.float32) * scale).astype(np.float16)


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

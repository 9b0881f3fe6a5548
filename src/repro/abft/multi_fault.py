"""Multi-fault detection via multiple independent checksum combinations.

The paper (§2.4) notes that ABFT extends to detecting multiple faults by
generating several checksum rows/columns from *independent linear
combinations* of the matrix rows/columns, each with its own output
check.  This module implements that extension for the global scheme:
``r`` weighted column checksums of ``A`` and row checksums of ``B``
(Vandermonde-style weights), giving ``r`` simultaneous scalar checks
that jointly detect up to ``r`` faulty output values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..errors import ConfigurationError
from ..faults.injector import FaultSites
from ..gemm.counters import (
    BYTES_PER_MEM_INSTR,
    LANES_PER_ALU_INSTR,
    MainloopCost,
    mainloop_cost,
)
from ..gemm.executor import EXECUTION_STATS, TiledGemm
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig
from ..gpu.timing import KernelWork
from .base import (
    PlannedKernel,
    PreparedExecution,
    Scheme,
    SchemePlan,
)
from .checksums import (
    MultiWeightChecksums,
    _multi_combine_row_partials,
    integer_checksum_weights,
    multi_row_partials,
    multi_weight_checksums,
    struck_multi_weighted_sums,
    vandermonde_weights,
)


@dataclass(frozen=True)
class _MultiState:
    """Fault-invariant side of the ``r`` weighted checks."""

    weights_m: np.ndarray  # (r, m_full)
    weights_n: np.ndarray  # (r, n_full)
    references: np.ndarray  # (r,)
    magnitudes: np.ndarray  # (r,)


class MultiChecksumGlobalABFT(Scheme):
    """Global ABFT with ``r`` independent weighted checksums."""

    name = "global_multi"

    def __init__(self, num_checksums: int = 2, *, dtype: str = "fp16") -> None:
        super().__init__(dtype=dtype)
        if num_checksums < 1:
            raise ConfigurationError(
                f"num_checksums must be >= 1, got {num_checksums}"
            )
        self.num_checksums = num_checksums

    @property
    def cache_token(self):
        """Prepared state depends on ``r`` (and pipeline dtype)."""
        if self.dtype == "fp16":
            return (self.name, self.num_checksums)
        return (self.name, self.num_checksums, self.dtype)

    def _position_weights(self, length: int) -> np.ndarray:
        """Row weights matched to the pipeline: exact integers under int8."""
        if self.dtype == "int8":
            return integer_checksum_weights(length, self.num_checksums)
        return vandermonde_weights(length, self.num_checksums)

    def plan(
        self,
        problem: GemmProblem,
        tile: TileConfig,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        *,
        cost: MainloopCost | None = None,
    ) -> SchemePlan:
        r = self.num_checksums
        if cost is None:
            cost = mainloop_cost(problem, tile, constants)
        outputs = problem.m_pad * problem.n_pad

        # r weighted output summations + r next-layer activation
        # checksums fused in the epilogue (each a multiply-add now, not
        # just an add: weighted combination).
        epilogue_alu = 2.0 * r * outputs * (constants.epilogue_alu_per_output + 0.5)
        epilogue_bytes = r * (
            4.0 * cost.blocks
            + constants.fp16_bytes * problem.n_pad
            + constants.global_epilogue_c_traffic
            * constants.fp16_bytes
            * problem.m_pad
            * problem.n_pad
        )
        main = PlannedKernel(
            label="mainloop+fused-epilogue",
            work=cost.to_kernel_work(
                extra_alu_ops=epilogue_alu,
                extra_bytes=epilogue_bytes,
                extra_registers=4 * r,
                constants=constants,
            ),
        )

        check_alu = r * (2.0 * problem.k_pad + cost.blocks + 8.0)
        check_bytes = r * (
            2.0 * constants.fp16_bytes * problem.k_pad + 4.0 * cost.blocks + 8.0
        )
        check = PlannedKernel(
            label="abft-check",
            work=KernelWork(
                matmul_flops=0.0,
                alu_ops=check_alu,
                dram_bytes=check_bytes,
                issue_slots=check_alu / LANES_PER_ALU_INSTR
                + check_bytes / BYTES_PER_MEM_INSTR,
                blocks=1,
                threads_per_block=128,
                registers_per_thread=32,
                launches=1,
            ),
            visible_fraction=1.0 - constants.check_kernel_overlap,
        )
        return SchemePlan(self.name, problem, tile, (main, check))

    def _prepare_weight_state(
        self, executor: TiledGemm, b_pad: np.ndarray
    ) -> MultiWeightChecksums:
        return multi_weight_checksums(
            b_pad, self.num_checksums, integer=self.dtype == "int8"
        )

    def _prepare_state(
        self,
        executor: TiledGemm,
        a_pad: np.ndarray,
        b_pad: np.ndarray,
        c_clean: np.ndarray,
        weight_state: MultiWeightChecksums | None,
    ) -> _MultiState:
        if weight_state is not None and len(weight_state.combos) != self.num_checksums:
            raise ConfigurationError(
                f"prepared weights carry {len(weight_state.combos)} checksum "
                f"combinations, this scheme needs {self.num_checksums}"
            )
        if weight_state is None:
            weight_state = multi_weight_checksums(
                b_pad, self.num_checksums, integer=self.dtype == "int8"
            )
        EXECUTION_STATS.activation_reductions += 1
        a32 = a_pad.astype(np.float64 if self.dtype == "int8" else np.float32)
        # Row weights act on A's rows (length M); column weights on B's
        # columns (length N).  Check s: (w_m^s A) (B w_n^s) == w_m^s C w_n^s.
        w_m = self._position_weights(executor.m_full)
        w_n = weight_state.weights_n

        references = np.empty(self.num_checksums, dtype=np.float64)
        magnitudes = np.empty(self.num_checksums, dtype=np.float64)
        abs_a = np.abs(a32)
        for s in range(self.num_checksums):
            col_a = w_m[s] @ a32  # (K,)
            references[s] = float(col_a @ weight_state.combos[s])
            magnitudes[s] = float(
                (np.abs(w_m[s]) @ abs_a) @ weight_state.abs_combos[s]
            )
        if self.dtype == "int8" and magnitudes.max(initial=0.0) >= 2.0**52:
            # The integer-weighted checks are exact only while every
            # intermediate fits float64's exact-integer range.
            raise ConfigurationError(
                f"int8 global_multi with r={self.num_checksums} exceeds the "
                f"exact-integer range for this problem size; reduce the "
                f"checksum count or the GEMM extents"
            )
        return _MultiState(
            weights_m=w_m, weights_n=w_n,
            references=references, magnitudes=magnitudes,
        )

    # -- struck-check hooks -------------------------------------------
    def _clean_output_reductions(self, prepared: PreparedExecution) -> np.ndarray:
        state: _MultiState = prepared.state
        return multi_row_partials(prepared.c_clean, state.weights_n)

    def _clean_comparison_inputs(self, prepared: PreparedExecution):
        state: _MultiState = prepared.state
        executor = prepared.executor
        clean_sums = _multi_combine_row_partials(
            prepared.clean_reductions[None], state.weights_m
        )[0]
        return (
            state.references,
            clean_sums,
            executor.m_full * executor.n_full + executor.k_full,
            state.magnitudes,
        )

    def _struck_checks(self, prepared: PreparedExecution, sites: FaultSites):
        state: _MultiState = prepared.state
        touched, values = struck_multi_weighted_sums(
            prepared.clean_reductions, prepared.c_clean, sites,
            state.weights_m, state.weights_n,
        )
        # A single-element fault perturbs one row partial, which feeds
        # all r weighted checks: every touched trial strikes 0 .. r-1.
        r = self.num_checksums
        trials = np.repeat(touched, r)
        checks = np.tile(np.arange(r, dtype=np.intp), len(touched))
        return trials, checks, values.reshape(-1)

    def _checksum_check(
        self, prepared: PreparedExecution, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        # The fault's row picks one of the r weighted checksums.
        return rows % self.num_checksums

"""One-sided thread-level ABFT (paper §5.2.2, right side of Fig. 7).

Each thread generates a running row checksum of its ``Bt`` fragment
(``O(Nt)`` CUDA-core adds per K-step) and multiplies the *entirety* of
its ``At`` fragment by that checksum via ``Mt/2`` extra MMAs per K-step,
accumulating into ``Mt`` extra registers.  At the end, the ``Mt`` ABFT
accumulators must equal the row-sums of the thread's ``Mt x Nt``
output fragment.

Why this shape: it deliberately shifts redundant work *onto the
Tensor-Core pipe* — the resource bandwidth-bound layers leave idle —
while keeping the CUDA-core (checksum) work minimal, because CUDA cores
are already busy with address math and loop bookkeeping (paper §5.2.2).
It also shares every load with the mainloop and writes nothing extra:
zero additional DRAM traffic, per the §3.5 design principle.  The weight
checksum is *recomputed online* (not loaded), again to avoid loads
(§5.2.1).
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..faults.injector import FaultSites
from ..gemm.counters import MainloopCost, mainloop_cost
from ..gemm.executor import TiledGemm
from ..gemm.problem import GemmProblem
from ..gemm.tiles import KSTEP, TileConfig
from .base import (
    PlannedKernel,
    PreparedExecution,
    Scheme,
    SchemePlan,
)
from .checksums import (
    OneSidedChecksums,
    TileWeightChecksums,
    one_sided_checksums,
    one_sided_output_rowsums,
    one_sided_struck_rowsums,
    tile_weight_checksums,
)


class ThreadLevelOneSided(Scheme):
    """Per-thread one-sided ABFT fused into the GEMM mainloop."""

    name = "thread_onesided"

    def plan(
        self,
        problem: GemmProblem,
        tile: TileConfig,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        *,
        cost: MainloopCost | None = None,
    ) -> SchemePlan:
        if cost is None:
            cost = mainloop_cost(problem, tile, constants)

        # Mt/2 extra MMAs per K-step versus Mt*Nt/2 mainloop MMAs:
        # a 1/Nt relative increase in Tensor-Core work (Table 1).
        extra_tc = cost.tc_flops / tile.nt

        # O(Nt) checksum adds per K-step: the running row checksum of
        # the 2 x Nt Bt chunk costs ~2*Nt FP16-lane adds.
        mainloop_checksum_alu = (
            cost.threads_total * cost.ksteps * (KSTEP * tile.nt)
        )
        # Final per-thread check: row-sum the Mt x Nt output fragment
        # (Mt*Nt adds) and compare Mt values.
        final_check_alu = cost.threads_total * (tile.mt * tile.nt + tile.mt)

        kernel = PlannedKernel(
            label="mainloop+thread-abft",
            work=cost.to_kernel_work(
                extra_tc_flops=extra_tc,
                extra_alu_ops=mainloop_checksum_alu + final_check_alu,
                extra_registers=tile.mt + 2,
                constants=constants,
            ),
            time_multiplier=1.0 + constants.thread_abft_fixed_fraction,
        )
        return SchemePlan(self.name, problem, tile, (kernel,))

    def _prepare_weight_state(
        self, executor: TiledGemm, b_pad: np.ndarray
    ) -> TileWeightChecksums:
        return tile_weight_checksums(executor, b_pad)

    def _prepare_state(
        self,
        executor: TiledGemm,
        a_pad: np.ndarray,
        b_pad: np.ndarray,
        c_clean: np.ndarray,
        weight_state: TileWeightChecksums | None,
    ) -> OneSidedChecksums:
        return one_sided_checksums(executor, a_pad, b_pad, weights=weight_state)

    # -- struck-check hooks -------------------------------------------
    def _clean_output_reductions(self, prepared: PreparedExecution) -> np.ndarray:
        return one_sided_output_rowsums(prepared.executor, prepared.c_clean)

    def _clean_comparison_inputs(self, prepared: PreparedExecution):
        chks: OneSidedChecksums = prepared.state
        return (
            chks.reference,
            prepared.clean_reductions,
            prepared.executor.k_full + prepared.tile.nt,
            chks.magnitude,
        )

    def _struck_checks(self, prepared: PreparedExecution, sites: FaultSites):
        return one_sided_struck_rowsums(
            prepared.executor, prepared.c_clean, sites
        )

    def _checksum_check(
        self, prepared: PreparedExecution, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        # The thread's ABFT accumulator for the fault's row and column tile.
        return rows * prepared.executor.n_tiles + cols // prepared.tile.nt

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

from typing import Sequence

import numpy as np

from ..config import DEFAULT_CONSTANTS, DetectionConstants, ModelConstants
from ..faults.injector import FaultSites, apply_fault_to_accumulator
from ..faults.model import FaultSpec
from ..gemm.counters import MainloopCost, mainloop_cost
from ..gemm.executor import TiledGemm
from ..gemm.problem import GemmProblem
from ..gemm.tiles import KSTEP, TileConfig
from .base import (
    ExecutionOutcome,
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
    one_sided_output_rowsums_batch,
    one_sided_struck_rowsums,
    splice_one_sided_rowsums,
    tile_weight_checksums,
)
from .detection import compare_checksums_batch


class ThreadLevelOneSided(Scheme):
    """Per-thread one-sided ABFT fused into the GEMM mainloop."""

    name = "thread_onesided"
    supports_sparse = True

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

    def _references_batch(
        self,
        prepared: PreparedExecution,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
    ) -> np.ndarray:
        """Per-trial ABFT references with checksum-path faults applied.

        The checksum side is fault-invariant for most trials: broadcast
        it, materializing per-trial copies only when checksum-path
        faults actually strike.
        """
        chks: OneSidedChecksums = prepared.state
        executor = prepared.executor
        chosen = prepared.tile
        struck = [
            (i, specs)
            for i, faults in enumerate(faults_batch)
            if (specs := self._checksum_faults(faults))
        ]
        references = chks.reference[None]
        if struck:
            references = np.broadcast_to(
                chks.reference, (len(faults_batch), *chks.reference.shape)
            ).copy()
            for i, specs in struck:
                for spec in specs:
                    # A checksum-path fault corrupts the thread's ABFT
                    # accumulator for the row/tile addressed by the spec.
                    tile_col = min(spec.col // chosen.nt, executor.n_tiles - 1)
                    row = min(spec.row, executor.m_full - 1)
                    apply_fault_to_accumulator(
                        references[i],
                        type(spec)(
                            row=row,
                            col=tile_col,
                            kind=spec.kind,
                            bit=spec.bit,
                            value=spec.value,
                            path=spec.path,
                        ),
                    )
        return references

    def _verdicts(
        self,
        prepared: PreparedExecution,
        references: np.ndarray,
        rowsums: np.ndarray,
        detection: DetectionConstants,
    ):
        chks: OneSidedChecksums = prepared.state
        return compare_checksums_batch(
            references,
            rowsums,
            n_terms=prepared.executor.k_full + prepared.tile.nt,
            magnitudes=chks.magnitude,
            constants=detection,
        )

    def _finish_batch(
        self,
        prepared: PreparedExecution,
        c_batch: np.ndarray,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        detection: DetectionConstants,
    ) -> list[ExecutionOutcome]:
        rowsums = one_sided_output_rowsums_batch(prepared.executor, c_batch)
        verdicts = self._walk_verdicts(prepared, rowsums, faults_batch, detection)
        return self._outcome_batch(prepared, c_batch, verdicts, faults_batch)

    # -- sparse re-reduction hooks -------------------------------------
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

    def _sparse_output_reduction(
        self, prepared: PreparedExecution, sites: FaultSites
    ) -> np.ndarray:
        return splice_one_sided_rowsums(
            prepared.executor, prepared.clean_reductions, prepared.c_clean, sites
        )

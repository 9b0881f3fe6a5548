"""Two-sided thread-level ABFT (paper §5.2.2, left side of Fig. 7).

Each thread generates checksums of *both* its ``At`` chunk (column
checksum, ``O(Mt)`` adds) and its ``Bt`` chunk (row checksum, ``O(Nt)``
adds) per K-step, then performs a *single* extra MMA over the checksums,
accumulating one scalar invariant: at the end, the ABFT scalar must
equal the sum of the thread's entire ``Mt x Nt`` output fragment.

This minimizes redundant Tensor-Core work (1 extra MMA vs the
mainloop's ``Mt*Nt/2`` per step) but maximizes CUDA-core checksum work
(``O(Mt+Nt)`` per step).  Because CUDA cores are *not* idle in
bandwidth-bound GEMMs (address math, loop bookkeeping), this trade is
usually worse than one-sided's (paper Table 1, Fig. 12) — reproducing
that comparison is the point of implementing this scheme.
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
    TileWeightChecksums,
    TwoSidedChecksums,
    splice_thread_tile_sums,
    thread_tile_struck_sums,
    thread_tile_sums,
    thread_tile_sums_batch,
    tile_weight_checksums,
    two_sided_checksums,
)
from .detection import compare_checksums_batch


class ThreadLevelTwoSided(Scheme):
    """Per-thread two-sided ABFT fused into the GEMM mainloop."""

    name = "thread_twosided"
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

        # One extra MMA per K-step versus Mt*Nt/2 mainloop MMAs.
        extra_tc = cost.tc_flops * 2.0 / (tile.mt * tile.nt)

        # O(Mt + Nt) checksum adds per K-step: column checksum of the
        # Mt x 2 At chunk (~2*Mt lane-adds) plus row checksum of the
        # 2 x Nt Bt chunk (~2*Nt lane-adds).
        mainloop_checksum_alu = (
            cost.threads_total * cost.ksteps * KSTEP * (tile.mt + tile.nt)
        )
        # Final per-thread check: sum the Mt x Nt fragment, one compare.
        final_check_alu = cost.threads_total * (tile.mt * tile.nt + 4)

        kernel = PlannedKernel(
            label="mainloop+thread-abft",
            work=cost.to_kernel_work(
                extra_tc_flops=extra_tc,
                extra_alu_ops=mainloop_checksum_alu + final_check_alu,
                extra_registers=4,
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
    ) -> TwoSidedChecksums:
        return two_sided_checksums(executor, a_pad, b_pad, weights=weight_state)

    def _references_batch(
        self,
        prepared: PreparedExecution,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
    ) -> np.ndarray:
        """Per-trial ABFT references with checksum-path faults applied."""
        chks: TwoSidedChecksums = prepared.state
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
                    tile_row = min(spec.row // chosen.mt, executor.m_tiles - 1)
                    tile_col = min(spec.col // chosen.nt, executor.n_tiles - 1)
                    apply_fault_to_accumulator(
                        references[i],
                        type(spec)(
                            row=tile_row,
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
        tile_sums: np.ndarray,
        detection: DetectionConstants,
    ):
        chks: TwoSidedChecksums = prepared.state
        chosen = prepared.tile
        return compare_checksums_batch(
            references,
            tile_sums,
            n_terms=prepared.executor.k_full * chosen.mt + chosen.mt * chosen.nt,
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
        tile_sums = thread_tile_sums_batch(prepared.executor, c_batch)
        verdicts = self._walk_verdicts(prepared, tile_sums, faults_batch, detection)
        return self._outcome_batch(prepared, c_batch, verdicts, faults_batch)

    # -- sparse re-reduction hooks -------------------------------------
    def _clean_output_reductions(self, prepared: PreparedExecution) -> np.ndarray:
        return thread_tile_sums(prepared.executor, prepared.c_clean)

    def _clean_comparison_inputs(self, prepared: PreparedExecution):
        chks: TwoSidedChecksums = prepared.state
        chosen = prepared.tile
        return (
            chks.reference,
            prepared.clean_reductions,
            prepared.executor.k_full * chosen.mt + chosen.mt * chosen.nt,
            chks.magnitude,
        )

    def _struck_checks(self, prepared: PreparedExecution, sites: FaultSites):
        return thread_tile_struck_sums(
            prepared.executor, prepared.c_clean, sites
        )

    def _sparse_output_reduction(
        self, prepared: PreparedExecution, sites: FaultSites
    ) -> np.ndarray:
        return splice_thread_tile_sums(
            prepared.executor, prepared.clean_reductions, prepared.c_clean, sites
        )

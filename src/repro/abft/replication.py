"""Thread-level replication baselines (paper §4).

Two variants the paper explored before settling on ABFT:

* **Traditional replication**: every MMA is executed twice and the two
  accumulator sets compared element by element.  Doubling the ``Mt*Nt``
  output registers per thread wrecks occupancy, which serializes memory
  latency — the paper found "significant slowdowns" from exactly this.
* **Replicated MMA, single accumulation**: the redundant MMAs all
  accumulate into a *single* set of four registers whose final sum must
  equal the sum of the original ``Mt*Nt`` accumulators.  Occupancy is
  preserved, but the doubled Tensor-Core work still costs heavily on
  compute-bound layers (Fig. 12's replication spike beyond size 512).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import DEFAULT_CONSTANTS, DetectionConstants, ModelConstants
from ..faults.injector import (
    FaultSites,
    apply_fault_to_accumulator,
    corrupted_value,
)
from ..faults.model import FaultSpec
from ..gemm.counters import MainloopCost, mainloop_cost
from ..gemm.executor import TiledGemm
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig
from .base import (
    ExecutionOutcome,
    PlannedKernel,
    PreparedExecution,
    Scheme,
    SchemePlan,
)
from .checksums import (
    splice_thread_tile_sums,
    thread_tile_struck_sums,
    thread_tile_sums,
    thread_tile_sums_batch,
)
from .detection import compare_checksums_batch


class ReplicationTraditional(Scheme):
    """Duplicate MMAs into a second full accumulator set; compare all.

    No sparse re-reduction path: the check *is* an elementwise compare
    of the full output against the replica — there is no output-side
    reduction whose slices a fault could localize to.
    """

    name = "replication_traditional"

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
        # Mt*Nt/2 extra MMAs per step: Tensor-Core work doubles.
        extra_tc = cost.tc_flops
        # Final element-wise compare of the two accumulator sets.
        final_check_alu = cost.threads_total * (tile.mt * tile.nt)
        kernel = PlannedKernel(
            label="mainloop+replication",
            work=cost.to_kernel_work(
                extra_tc_flops=extra_tc,
                extra_alu_ops=final_check_alu,
                # The second accumulator set: the occupancy killer.
                extra_registers=tile.mt * tile.nt,
                constants=constants,
            ),
            time_multiplier=1.0 + constants.thread_abft_fixed_fraction,
        )
        return SchemePlan(self.name, problem, tile, (kernel,))

    def _finish_batch(
        self,
        prepared: PreparedExecution,
        c_batch: np.ndarray,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        detection: DetectionConstants,
    ) -> list[ExecutionOutcome]:
        # The replica runs the identical MMA sequence on the identical
        # fragments, so absent faults it reproduces the accumulator
        # exactly; checksum-path faults corrupt the replica instead.
        struck = [
            (i, specs)
            for i, faults in enumerate(faults_batch)
            if (specs := self._checksum_faults(faults))
        ]
        replicas = prepared.c_clean[None]
        if struck:
            replicas = np.broadcast_to(
                prepared.c_clean, c_batch.shape
            ).copy()
            for i, specs in struck:
                for spec in specs:
                    apply_fault_to_accumulator(replicas[i], spec)

        # Identical operation orders on both sides: tolerance only needs
        # to cover non-associativity-free comparison, i.e. none — but we
        # keep the standard machinery with a magnitude bound from |C|.
        magnitudes = np.maximum(np.abs(replicas), np.abs(c_batch))
        verdicts = compare_checksums_batch(
            replicas,
            c_batch,
            n_terms=1,
            magnitudes=magnitudes,
            constants=detection,
        )
        return self._outcome_batch(prepared, c_batch, verdicts, faults_batch)


class ReplicationSingleAccumulator(Scheme):
    """Duplicate MMAs into one 4-register accumulator; compare sums."""

    name = "replication_single"
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
        extra_tc = cost.tc_flops
        # Final check: sum Mt*Nt original registers + 4 replica
        # registers, one compare.
        final_check_alu = cost.threads_total * (tile.mt * tile.nt + 4 + 1)
        kernel = PlannedKernel(
            label="mainloop+replication",
            work=cost.to_kernel_work(
                extra_tc_flops=extra_tc,
                extra_alu_ops=final_check_alu,
                extra_registers=4,
                constants=constants,
            ),
            time_multiplier=1.0 + constants.thread_abft_fixed_fraction,
        )
        return SchemePlan(self.name, problem, tile, (kernel,))

    def _prepare_state(
        self,
        executor: TiledGemm,
        a_pad: np.ndarray,
        b_pad: np.ndarray,
        c_clean: np.ndarray,
        weight_state: None,
    ) -> tuple[np.ndarray, np.ndarray]:
        # The replica's 4-register sum equals the clean per-tile sum;
        # both it and the |C| magnitude bound are fault-invariant.
        replica_sums = thread_tile_sums(executor, c_clean).astype(np.float64)
        view = executor.thread_tile_view(np.abs(c_clean))
        magnitudes = view.sum(axis=(1, 3), dtype=np.float64)
        return replica_sums, magnitudes

    def _references_batch(
        self,
        prepared: PreparedExecution,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
    ) -> np.ndarray:
        """Per-trial replica sums; checksum-path faults corrupt the replica."""
        executor = prepared.executor
        chosen = prepared.tile
        clean_sums, _ = prepared.state
        struck = [
            (i, specs)
            for i, faults in enumerate(faults_batch)
            if (specs := self._checksum_faults(faults))
        ]
        replica_sums = clean_sums[None]
        if struck:
            replica_sums = np.broadcast_to(
                clean_sums, (len(faults_batch), *clean_sums.shape)
            ).copy()
            for i, specs in struck:
                for spec in specs:
                    tile_row = min(spec.row // chosen.mt, executor.m_tiles - 1)
                    tile_col = min(spec.col // chosen.nt, executor.n_tiles - 1)
                    replica_sums[i, tile_row, tile_col] = corrupted_value(
                        float(replica_sums[i, tile_row, tile_col]), spec
                    )
        return replica_sums

    def _verdicts(
        self,
        prepared: PreparedExecution,
        replica_sums: np.ndarray,
        original_sums: np.ndarray,
        detection: DetectionConstants,
    ):
        chosen = prepared.tile
        _, magnitudes = prepared.state
        return compare_checksums_batch(
            replica_sums,
            original_sums,
            n_terms=chosen.mt * chosen.nt,
            magnitudes=magnitudes,
            constants=detection,
        )

    def _finish_batch(
        self,
        prepared: PreparedExecution,
        c_batch: np.ndarray,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        detection: DetectionConstants,
    ) -> list[ExecutionOutcome]:
        original_sums = thread_tile_sums_batch(prepared.executor, c_batch)
        verdicts = self._walk_verdicts(
            prepared, original_sums, faults_batch, detection
        )
        return self._outcome_batch(prepared, c_batch, verdicts, faults_batch)

    # -- sparse re-reduction hooks -------------------------------------
    def _clean_output_reductions(self, prepared: PreparedExecution) -> np.ndarray:
        return thread_tile_sums(prepared.executor, prepared.c_clean)

    def _clean_comparison_inputs(self, prepared: PreparedExecution):
        chosen = prepared.tile
        clean_sums, magnitudes = prepared.state
        return (
            clean_sums,
            prepared.clean_reductions,
            chosen.mt * chosen.nt,
            magnitudes,
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

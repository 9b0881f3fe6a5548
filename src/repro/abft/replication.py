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

import numpy as np

from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..faults.injector import FaultSites
from ..gemm.counters import MainloopCost, mainloop_cost
from ..gemm.executor import TiledGemm
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig
from .base import (
    PlannedKernel,
    PreparedExecution,
    Scheme,
    SchemePlan,
)
from .checksums import (
    replication_struck_elements,
    thread_tile_struck_sums,
    thread_tile_sums,
)


class ReplicationTraditional(Scheme):
    """Duplicate MMAs into a second full accumulator set; compare all.

    The check *is* an elementwise compare of the output against the
    replica, so a fault's struck check is its own element: no reduction
    to recompute, and checksum-path faults corrupt the replica element.
    The replica runs the identical MMA sequence on the identical
    fragments, so absent faults it reproduces the accumulator exactly.
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

    # -- struck-check hooks -------------------------------------------
    def _clean_output_reductions(self, prepared: PreparedExecution) -> np.ndarray:
        # The compared output side is the accumulator itself.
        return prepared.c_clean

    def _clean_comparison_inputs(self, prepared: PreparedExecution):
        # Identical operation orders on both sides: the tolerance only
        # needs to cover a comparison without reassociation, i.e. none,
        # but the standard machinery runs with a magnitude bound from |C|.
        return (
            prepared.c_clean,
            prepared.clean_reductions,
            1,
            np.abs(prepared.c_clean),
        )

    def _struck_checks(self, prepared: PreparedExecution, sites: FaultSites):
        return replication_struck_elements(prepared.c_clean, sites)

    def _checksum_check(
        self, prepared: PreparedExecution, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        return rows * prepared.executor.n_full + cols

    def _struck_magnitudes(
        self, references: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        # max(|replica|, |C|) in the accumulator dtype: a fault moves the
        # bound of exactly the elements it struck.
        return np.maximum(np.abs(references), np.abs(values))


class ReplicationSingleAccumulator(Scheme):
    """Duplicate MMAs into one 4-register accumulator; compare sums."""

    name = "replication_single"

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

    # -- struck-check hooks -------------------------------------------
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

    def _checksum_check(
        self, prepared: PreparedExecution, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        # The replica sum of the thread owning the fault's tile.
        tile = prepared.tile
        return (rows // tile.mt) * prepared.executor.n_tiles + cols // tile.nt

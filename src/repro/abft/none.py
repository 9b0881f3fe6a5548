"""The unprotected baseline: plain GEMM, no redundant execution.

Every overhead number in the paper is relative to this scheme's
execution time (``T_o`` in §6.2).
"""

from __future__ import annotations

from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..gemm.counters import MainloopCost, mainloop_cost
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig
from .base import PlannedKernel, Scheme, SchemePlan


class NoProtection(Scheme):
    """Plain GEMM with no fault detection: every verdict is ``None``."""

    name = "none"
    protects = False

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
        kernel = PlannedKernel(
            label="mainloop",
            work=cost.to_kernel_work(constants=constants),
        )
        return SchemePlan(self.name, problem, tile, (kernel,))

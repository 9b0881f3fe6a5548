"""The unprotected baseline: plain GEMM, no redundant execution.

Every overhead number in the paper is relative to this scheme's
execution time (``T_o`` in §6.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import DEFAULT_CONSTANTS, DetectionConstants, ModelConstants
from ..faults.model import FaultSpec
from ..gemm.counters import MainloopCost, mainloop_cost
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig
from .base import (
    OutcomeBatch,
    PlannedKernel,
    PreparedExecution,
    Scheme,
    SchemePlan,
)


class NoProtection(Scheme):
    """Plain GEMM with no fault detection."""

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

    def _finish_batch(
        self,
        prepared: PreparedExecution,
        c_batch: np.ndarray,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
        detection: DetectionConstants,
    ) -> OutcomeBatch:
        return OutcomeBatch(prepared, faults_batch, [None] * len(faults_batch), c_batch)

"""Global ABFT, following the optimized scheme of Hari et al. (paper §2.5).

One column checksum over the full activation matrix and one row
checksum over the full weight matrix; the checksum dot product must
equal the summation of all entries of ``C``.

Cost structure (what ``plan`` encodes):

* The **weight checksum is built offline** (weights are fixed across
  inference requests) — no runtime cost.
* The **output summation** and the **next layer's activation checksum**
  are *fused* into the GEMM epilogue: no extra passes over ``C`` in
  DRAM, just CUDA-core adds on values already in registers, plus small
  stores of per-threadblock partial sums.
* A separate small **check kernel** performs the checksum dot product
  and the comparison.  It can overlap the next layer (paper step 5), so
  only ``1 - check_kernel_overlap`` of it is visible — but its kernel
  launch makes global ABFT expensive for tiny, launch-bound layers.

This minimizes redundant FLOPs (best for compute-bound layers) but
cannot hide *any* of its cost inside the mainloop's idle Tensor-Core
cycles, which is what thread-level ABFT exploits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import DEFAULT_CONSTANTS, DetectionConstants, ModelConstants
from ..faults.injector import corrupted_value
from ..faults.model import FaultSpec
from ..gemm.counters import (
    BYTES_PER_MEM_INSTR,
    LANES_PER_ALU_INSTR,
    MainloopCost,
    mainloop_cost,
)
from ..gemm.executor import TiledGemm
from ..gemm.problem import GemmProblem
from ..gemm.tiles import TileConfig
from ..gpu.timing import KernelWork
from .base import (
    ExecutionOutcome,
    PlannedKernel,
    PreparedExecution,
    Scheme,
    SchemePlan,
)
from ..faults.injector import FaultSites
from .checksums import (
    GlobalChecksums,
    GlobalWeightChecksums,
    global_checksums,
    global_weight_checksums,
    output_row_sums,
    output_summation_batch,
    splice_output_summation,
    struck_output_summations,
)
from .detection import compare_checksums_batch


class GlobalABFT(Scheme):
    """Kernel-level ABFT with fused checksums and an async check kernel."""

    name = "global"
    supports_sparse = True

    #: Threads used by the reduction/check kernel.
    CHECK_KERNEL_THREADS = 128
    #: Register footprint of the check kernel (it is trivially small).
    CHECK_KERNEL_REGISTERS = 32

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
        outputs = problem.m_pad * problem.n_pad

        # Fused epilogue: output summation + next-layer activation
        # checksum, each one pass of adds over register-resident outputs.
        epilogue_alu = 2.0 * outputs * constants.epilogue_alu_per_output
        # Stores: per-threadblock FP32 partial output sums, plus the
        # next layer's activation checksum (n_pad FP16 values), plus the
        # cross-threadblock reduction traffic of the fused checksums
        # (modeled as a fraction of the C-tile bytes; see
        # ModelConstants.global_epilogue_c_traffic).
        epilogue_bytes = (
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
                extra_registers=4,
                constants=constants,
            ),
        )

        # Check kernel: reduce per-block partials, checksum dot product
        # over K, one comparison.  Reads the activation checksum (K
        # values), the offline weight checksum (K values) and the
        # partial sums.
        check_alu = 2.0 * problem.k_pad + cost.blocks + 8.0
        check_bytes = (
            2.0 * constants.fp16_bytes * problem.k_pad + 4.0 * cost.blocks + 8.0
        )
        check_work = KernelWork(
            matmul_flops=0.0,
            alu_ops=check_alu,
            dram_bytes=check_bytes,
            issue_slots=check_alu / LANES_PER_ALU_INSTR
            + check_bytes / BYTES_PER_MEM_INSTR,
            blocks=1,
            threads_per_block=self.CHECK_KERNEL_THREADS,
            registers_per_thread=self.CHECK_KERNEL_REGISTERS,
            launches=1,
        )
        check = PlannedKernel(
            label="abft-check",
            work=check_work,
            visible_fraction=1.0 - constants.check_kernel_overlap,
        )
        return SchemePlan(self.name, problem, tile, (main, check))

    def _prepare_weight_state(
        self, executor: TiledGemm, b_pad: np.ndarray
    ) -> GlobalWeightChecksums:
        return global_weight_checksums(b_pad)

    def _prepare_state(
        self,
        executor: TiledGemm,
        a_pad: np.ndarray,
        b_pad: np.ndarray,
        c_clean: np.ndarray,
        weight_state: GlobalWeightChecksums | None,
    ) -> GlobalChecksums:
        return global_checksums(a_pad, b_pad, weights=weight_state)

    def _references_batch(
        self,
        prepared: PreparedExecution,
        faults_batch: Sequence[tuple[FaultSpec, ...]],
    ) -> np.ndarray:
        """Per-trial checksum references with checksum-path faults applied."""
        chks: GlobalChecksums = prepared.state
        references = np.full(len(faults_batch), chks.reference, dtype=np.float64)
        for i, faults in enumerate(faults_batch):
            for spec in self._checksum_faults(faults):
                references[i] = corrupted_value(float(references[i]), spec)
        return references

    def _verdicts(
        self,
        prepared: PreparedExecution,
        references: np.ndarray,
        out_sums: np.ndarray,
        detection: DetectionConstants,
    ):
        chks: GlobalChecksums = prepared.state
        executor = prepared.executor
        return compare_checksums_batch(
            references[:, None],
            out_sums[:, None],
            n_terms=executor.m_full * executor.n_full + executor.k_full,
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
        out_sums = output_summation_batch(c_batch)
        verdicts = self._walk_verdicts(prepared, out_sums, faults_batch, detection)
        return self._outcome_batch(prepared, c_batch, verdicts, faults_batch)

    # -- sparse re-reduction hooks -------------------------------------
    def _clean_output_reductions(self, prepared: PreparedExecution) -> np.ndarray:
        return output_row_sums(prepared.c_clean)

    def _clean_comparison_inputs(self, prepared: PreparedExecution):
        chks: GlobalChecksums = prepared.state
        executor = prepared.executor
        return (
            np.asarray([chks.reference], dtype=np.float64),
            np.asarray([prepared.clean_reductions.sum()], dtype=np.float64),
            executor.m_full * executor.n_full + executor.k_full,
            chks.magnitude,
        )

    def _struck_checks(self, prepared: PreparedExecution, sites: FaultSites):
        touched, values = struck_output_summations(
            prepared.clean_reductions, prepared.c_clean, sites
        )
        # The output summation is the scheme's single check: index 0.
        return touched, np.zeros(len(touched), dtype=np.intp), values

    def _sparse_output_reduction(
        self, prepared: PreparedExecution, sites: FaultSites
    ) -> np.ndarray:
        return splice_output_summation(
            prepared.clean_reductions, prepared.c_clean, sites
        )

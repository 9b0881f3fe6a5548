"""Kernel latency model: launch overhead + max-over-pipes + wave effects.

The modeled execution time of one kernel is

    T = launches * t_launch + Q * max(T_tc, T_alu, T_mem, T_issue)

where each ``T_pipe = work_pipe / (peak_pipe * efficiency_pipe * U)``,
``U`` accounts for partial-device utilization when the grid has fewer
threadblocks than the device has SM slots, and ``Q`` is the wave
quantization factor (a grid of 1.1 waves takes as long as 2 waves of
compute on the critical pipe).

Memory-latency hiding degrades below an occupancy knee (see
``ModelConstants.mem_latency_occupancy_knee``), which is what punishes
traditional thread-level replication's register bloat (paper §4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..errors import ConfigurationError
from .occupancy import OccupancyResult, compute_occupancy
from .pipes import Pipe, PipeSet, PipeTimes
from .specs import GPUSpec


@dataclass(frozen=True)
class KernelWork:
    """Resource demands of one kernel launch, as counted by the GEMM engine.

    Attributes
    ----------
    matmul_flops:
        FLOPs routed to the matrix-math (Tensor Core) pipe.
    alu_ops:
        FP16-lane operations routed to the CUDA-core pipe (checksum
        generation, epilogue math, address/loop bookkeeping).
    dram_bytes:
        Bytes moved to/from DRAM.
    issue_slots:
        Warp-instruction issue slots consumed.
    blocks / threads_per_block / registers_per_thread / smem_per_block:
        Grid/occupancy parameters.
    launches:
        Number of kernel launches this work represents (a fused GEMM is
        1; global ABFT's separate check kernel adds another).
    """

    matmul_flops: float
    alu_ops: float
    dram_bytes: float
    issue_slots: float
    blocks: int
    threads_per_block: int
    registers_per_thread: int
    smem_per_block: int = 0
    launches: int = 1

    def __post_init__(self) -> None:
        if min(self.matmul_flops, self.alu_ops, self.dram_bytes, self.issue_slots) < 0:
            raise ConfigurationError("kernel work terms must be non-negative")
        if self.blocks <= 0 or self.threads_per_block <= 0:
            raise ConfigurationError("kernel grid must be non-empty")
        if self.launches < 0:
            raise ConfigurationError("launches must be non-negative")


@dataclass(frozen=True)
class KernelTiming:
    """Result of the latency model for one kernel."""

    total_s: float
    launch_s: float
    pipe_times: PipeTimes
    occupancy: OccupancyResult
    utilization: float
    wave_quantization: float

    @property
    def critical_pipe(self) -> str:
        """Name of the bottleneck pipe ('tensor'/'alu'/'memory'/'issue')."""
        return self.pipe_times.critical


def build_pipes(spec: GPUSpec, constants: ModelConstants = DEFAULT_CONSTANTS) -> PipeSet:
    """Device pipes with sustained-efficiency factors folded in."""
    return PipeSet(
        tensor=Pipe("tensor", spec.matmul_flops * constants.tensor_core_efficiency),
        alu=Pipe("alu", spec.alu_flops * constants.alu_efficiency),
        memory=Pipe("memory", spec.mem_bandwidth * constants.memory_efficiency),
        issue=Pipe("issue", spec.issue_slots_per_s * constants.issue_efficiency),
    )


class DeviceTable:
    """Device-invariant inputs of :func:`time_kernel`, computed once.

    A pre-deployment profiler prices tens of thousands of kernels on one
    device, but they share one set of pipes and only a few dozen
    distinct ``(threads, registers, smem)`` launch shapes.  The table
    holds the device's derated pipes and one occupancy result per launch
    shape, keyed by plain ints so a lookup never hashes the
    :class:`GPUSpec`.  Only successes are stored: an unschedulable shape
    raises :class:`~repro.errors.OccupancyError` on every lookup.
    """

    __slots__ = ("spec", "constants", "pipes", "_occupancy")

    def __init__(self, spec: GPUSpec, constants: ModelConstants = DEFAULT_CONSTANTS) -> None:
        self.spec = spec
        self.constants = constants
        self.pipes = build_pipes(spec, constants)
        self._occupancy: dict[tuple[int, int, int], OccupancyResult] = {}

    def occupancy(
        self, threads_per_block: int, registers_per_thread: int, smem_per_block: int
    ) -> OccupancyResult:
        """:func:`compute_occupancy` on this device, memoized per launch shape."""
        key = (threads_per_block, registers_per_thread, smem_per_block)
        occ = self._occupancy.get(key)
        if occ is None:
            occ = compute_occupancy(
                self.spec,
                threads_per_block=threads_per_block,
                registers_per_thread=registers_per_thread,
                smem_per_block=smem_per_block,
            )
            # A pure function of the key: a racing second insert stores
            # an equal value, so no lock is needed.
            self._occupancy[key] = occ
        return occ


def _memory_derating(occupancy: float, knee: float) -> float:
    """Fraction of peak bandwidth achievable at the given occupancy."""
    if knee <= 0.0:
        return 1.0
    return min(1.0, occupancy / knee)


def time_kernel(
    spec: GPUSpec,
    work: KernelWork,
    constants: ModelConstants = DEFAULT_CONSTANTS,
    *,
    table: DeviceTable | None = None,
) -> KernelTiming:
    """Model the latency of one kernel launch on ``spec``.

    Pass a :class:`DeviceTable` built for the same ``spec`` and
    ``constants`` to reuse its pipes and occupancy results across calls;
    without one, a throwaway table is built.

    Raises
    ------
    OccupancyError
        If the kernel cannot be scheduled at all (propagated from the
        occupancy calculator).
    ConfigurationError
        If ``table`` was built for a different device or constants.
    """
    if table is None:
        table = DeviceTable(spec, constants)
    elif (table.spec is not spec and table.spec != spec) or (
        table.constants is not constants and table.constants != constants
    ):
        raise ConfigurationError(
            f"device table built for {table.spec.name} does not match this call "
            f"({spec.name}, or other model constants)"
        )
    occ = table.occupancy(work.threads_per_block, work.registers_per_thread, work.smem_per_block)

    # Partial-device utilization: a grid smaller than one full wave only
    # keeps `blocks` SMs busy (at most one block per SM counts toward
    # spreading work; co-residency helps latency hiding, not peak math).
    utilization = min(1.0, work.blocks / spec.num_sms)

    pipes = table.pipes
    mem_derate = _memory_derating(occ.occupancy, constants.mem_latency_occupancy_knee)

    pipe_times = PipeTimes(
        tensor=pipes.tensor.time_for(work.matmul_flops) / utilization,
        alu=pipes.alu.time_for(work.alu_ops) / utilization,
        memory=pipes.memory.time_for(work.dram_bytes) / (utilization * mem_derate)
        if mem_derate > 0
        else math.inf,
        issue=pipes.issue.time_for(work.issue_slots) / utilization,
    )

    # Wave quantization: the tail wave of a multi-wave grid runs at the
    # same per-wave latency as full waves.
    slots = occ.blocks_per_sm * spec.num_sms
    waves = work.blocks / slots
    quantization = math.ceil(waves) / waves if waves > 1.0 else 1.0

    launch_s = work.launches * constants.launch_overhead_s
    total = launch_s + pipe_times.bound * quantization
    return KernelTiming(
        total_s=total,
        launch_s=launch_s,
        pipe_times=pipe_times,
        occupancy=occ,
        utilization=utilization,
        wave_quantization=quantization,
    )

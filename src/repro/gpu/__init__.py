"""GPU device substrate: specs, occupancy, execution pipes, latency model.

This package replaces the physical NVIDIA T4 of the paper with a
parametric analytic device model.  ``specs`` holds published datasheet
numbers for the GPUs the paper discusses; ``occupancy`` implements the
CUDA occupancy rules that drive the paper's §4 replication result;
``timing`` turns per-kernel cost counters into modeled execution times
using a multi-pipe (Tensor Core / CUDA core / DRAM / issue) roofline.
"""

from .specs import GPUSpec, get_gpu, list_gpus, T4, P4, V100, A100, JETSON_AGX_XAVIER
from .occupancy import OccupancyResult, compute_occupancy
from .pipes import Pipe, PipeSet, PipeTimes
from .timing import DeviceTable, KernelTiming, time_kernel

__all__ = [
    "GPUSpec",
    "get_gpu",
    "list_gpus",
    "T4",
    "P4",
    "V100",
    "A100",
    "JETSON_AGX_XAVIER",
    "OccupancyResult",
    "compute_occupancy",
    "Pipe",
    "PipeSet",
    "PipeTimes",
    "DeviceTable",
    "KernelTiming",
    "time_kernel",
]

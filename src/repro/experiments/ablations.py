"""Ablations over the design choices DESIGN.md calls out.

* ``ablation_check_overlap`` — how the global-ABFT check kernel's
  overlap fraction shifts the DLRM result (the paper's step 5 "can take
  place in parallel with the next layer").
* ``ablation_thread_tile`` — thread-tile shape sensitivity of one-sided
  ABFT's Tensor-Core premium (1/Nt, Table 1).
* ``ablation_device_sweep`` — §7.1: how the guided selection shifts
  with the device CMR across all registered GPUs.
"""

from __future__ import annotations

from ..config import DEFAULT_CONSTANTS
from ..core import IntensityGuidedABFT
from ..gemm import GemmProblem, TileConfig
from ..gpu import T4, get_gpu, list_gpus
from ..nn import build_model
from ..utils import Table


def ablation_check_overlap(
    *, fractions: tuple[float, ...] = (0.0, 0.3, 0.6, 0.9)
) -> Table:
    """Global-ABFT overhead on MLP-Bottom vs check-kernel overlap."""
    table = Table(
        ["check overlap", "global (%)", "guided (%)", "reduction"],
        title="Ablation — check-kernel overlap fraction (MLP-Bottom, batch 1, T4)",
    )
    model = build_model("mlp_bottom")
    for fraction in fractions:
        constants = DEFAULT_CONSTANTS.with_overrides(check_kernel_overlap=fraction)
        plan = IntensityGuidedABFT(T4, constants=constants).select_for_model(model)
        global_pct = plan.scheme_overhead_percent("global")
        guided_pct = plan.guided_overhead_percent
        table.add_row(
            [fraction, global_pct, guided_pct,
             global_pct / guided_pct if guided_pct > 0 else float("inf")]
        )
    return table


def ablation_thread_tile(*, size: int = 256) -> Table:
    """One-sided ABFT premium vs thread-tile shape (the 1/Nt law)."""
    tiles = (
        TileConfig(mb=128, nb=128, kb=32, mw=64, nw=64, mt=16, nt=8),
        TileConfig(mb=128, nb=64, kb=32, mw=64, nw=32, mt=8, nt=8),
        TileConfig(mb=64, nb=64, kb=32, mw=32, nw=32, mt=8, nt=4),
        TileConfig(mb=64, nb=32, kb=32, mw=32, nw=16, mt=4, nt=4),
    )
    from ..abft import get_scheme
    from ..gemm import mainloop_cost

    table = Table(
        ["thread tile", "extra TC work (%)", "paper law 1/Nt (%)"],
        title=f"Ablation — one-sided Tensor-Core premium vs tile shape ({size}^3 GEMM)",
    )
    problem = GemmProblem(size, size, size)
    scheme = get_scheme("thread_onesided")
    for tile in tiles:
        base = mainloop_cost(problem, tile).tc_flops
        plan = scheme.plan(problem, tile)
        extra = plan.kernels[0].work.matmul_flops - base
        table.add_row(
            [f"{tile.mt}x{tile.nt}", extra / base * 100.0, 100.0 / tile.nt]
        )
    return table


def ablation_device_sweep(*, model_name: str = "resnet50") -> Table:
    """§7.1: selections across all registered devices."""
    table = Table(
        ["device", "CMR", "thread layers", "global layers",
         "global (%)", "guided (%)"],
        title=f"Ablation — device sweep ({model_name})",
    )
    model = build_model(model_name)
    for name in list_gpus():
        spec = get_gpu(name)
        plan = IntensityGuidedABFT(spec).select_for_model(model)
        counts = plan.selection_counts
        table.add_row(
            [
                spec.name,
                spec.cmr,
                counts.get("thread_onesided", 0),
                counts.get("global", 0),
                plan.scheme_overhead_percent("global"),
                plan.guided_overhead_percent,
            ]
        )
    return table

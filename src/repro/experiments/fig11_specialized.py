"""Fig. 11: overhead on the NoScope-style specialized CNNs at batch 64.

Paper: reductions of 1.6-5.3x; Coral's global-ABFT overhead drops from
17% to 4.6%.  The architectures themselves are synthesized to the
paper's envelope (see DESIGN.md §6 and ``repro.nn.models.noscope``).
"""

from __future__ import annotations

from ..core import IntensityGuidedABFT
from ..gpu import T4, GPUSpec
from ..nn import build_model
from ..nn.models.registry import SPECIALIZED_CNNS
from ..utils import Table


def fig11_specialized(spec: GPUSpec = T4, *, batch: int = 64) -> Table:
    """Regenerate Fig. 11's series."""
    guided = IntensityGuidedABFT(spec)
    table = Table(
        [
            "model",
            "agg AI",
            "thread-level (%)",
            "global (%)",
            "intensity-guided (%)",
            "reduction vs global",
        ],
        title=f"Fig. 11 — overhead on specialized CNNs (batch {batch}, {spec.name})",
    )
    for name in SPECIALIZED_CNNS:
        model = build_model(name, batch=batch)
        plan = guided.select_for_model(model)
        global_pct = plan.scheme_overhead_percent("global")
        guided_pct = plan.guided_overhead_percent
        table.add_row(
            [
                name,
                model.aggregate_intensity(),
                plan.scheme_overhead_percent("thread_onesided"),
                global_pct,
                guided_pct,
                global_pct / guided_pct if guided_pct > 0 else float("inf"),
            ]
        )
    return table

"""Fig. 10: overhead on the DLRM MLPs at batch sizes 1 and 2048.

Paper: at batch 1 intensity-guided ABFT reduces overhead by 4.55x
(MLP-Bottom) and 3.24x (MLP-Top); at batch 2048 MLP-Top's intensity
reaches 175.8 and the thread-vs-global gap narrows, while MLP-Bottom
(92.0) keeps preferring thread-level ABFT.
"""

from __future__ import annotations

from ..core import IntensityGuidedABFT
from ..gpu import T4, GPUSpec
from ..nn import build_model
from ..utils import Table


def fig10_dlrm(spec: GPUSpec = T4, *, batches: tuple[int, ...] = (1, 2048)) -> Table:
    """Regenerate Fig. 10's four bars (two MLPs x two batch sizes)."""
    guided = IntensityGuidedABFT(spec)
    table = Table(
        [
            "model",
            "batch",
            "agg AI",
            "thread-level (%)",
            "global (%)",
            "intensity-guided (%)",
            "reduction vs global",
        ],
        title=f"Fig. 10 — overhead on DLRM MLPs ({spec.name})",
    )
    for name in ("mlp_bottom", "mlp_top"):
        for batch in batches:
            model = build_model(name, batch=batch)
            plan = guided.select_for_model(model)
            global_pct = plan.scheme_overhead_percent("global")
            guided_pct = plan.guided_overhead_percent
            table.add_row(
                [
                    name,
                    batch,
                    model.aggregate_intensity(),
                    plan.scheme_overhead_percent("thread_onesided"),
                    global_pct,
                    guided_pct,
                    global_pct / guided_pct if guided_pct > 0 else float("inf"),
                ]
            )
    return table

"""Table renderer for whole-model overhead results, one plan per row."""

from __future__ import annotations

from typing import Sequence

from ..utils import Table
from .overhead import reduction_factor
from .plan import DeploymentPlan


def model_overhead_table(
    plans: Sequence[DeploymentPlan],
    *,
    schemes: Sequence[str] = ("thread_onesided", "global"),
    title: str = "Execution-time overhead (%)",
    include_intensity: bool = True,
) -> Table:
    """One row per model: per-scheme overhead, guided overhead, reduction.

    Mirrors the layout of the paper's Figs. 8-11: models in order, the
    uniform schemes' overheads, intensity-guided ABFT's overhead, and
    the global-vs-guided reduction factor annotated above the bars.
    """
    columns = ["model"]
    if include_intensity:
        columns.append("agg AI")
    columns += [f"{s} (%)" for s in schemes]
    columns += ["intensity-guided (%)", "reduction vs global"]
    table = Table(columns, title=title)
    for plan in plans:
        row: list[object] = [plan.model]
        if include_intensity:
            total_flops = sum(l.problem.flops(padded=True) for l in plan)
            total_bytes = sum(l.problem.bytes_moved(padded=True) for l in plan)
            row.append(total_flops / total_bytes)
        for scheme in schemes:
            row.append(plan.scheme_overhead_percent(scheme))
        guided = plan.guided_overhead_percent
        row.append(guided)
        if "global" in schemes and guided > 0:
            row.append(reduction_factor(plan.scheme_overhead_percent("global"), guided))
        else:
            row.append(float("nan"))
        table.add_row(row)
    return table

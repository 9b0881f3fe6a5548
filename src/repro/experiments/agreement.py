"""§7.2: analytical model vs empirical profiling for scheme selection.

The paper selects schemes by empirical profiling but notes that an
analytical AI-vs-CMR rule would preserve the core insight.  This
experiment quantifies how often the two agree across every linear layer
of every evaluation model, and how much overhead the purely analytical
rule would sacrifice.
"""

from __future__ import annotations

from ..core import IntensityGuidedABFT, analytical_choice
from ..gpu import T4, GPUSpec
from ..nn import build_model, list_models
from ..utils import Table


def agreement_study(spec: GPUSpec = T4) -> Table:
    """Per-model agreement between analytical and profiled selection."""
    guided = IntensityGuidedABFT(spec)
    table = Table(
        [
            "model",
            "layers",
            "agreement",
            "profiled guided (%)",
            "analytical guided (%)",
            "sacrifice (pp)",
        ],
        title=f"§7.2 — analytical (AI vs CMR) vs empirical selection on {spec.name}",
    )
    for name in list_models():
        plan = guided.select_for_model(build_model(name))
        agree = 0
        analytical_total = 0.0
        for layer in plan:
            rule = analytical_choice(layer.problem, spec)
            if rule == layer.scheme:
                agree += 1
            analytical_total += layer.scheme_times_s[rule]
        profiled_pct = plan.guided_overhead_percent
        analytical_pct = (analytical_total / plan.baseline_s - 1.0) * 100.0
        table.add_row(
            [
                name,
                len(plan),
                f"{agree}/{len(plan)}",
                profiled_pct,
                analytical_pct,
                analytical_pct - profiled_pct,
            ]
        )
    return table


def agreement_fraction(spec: GPUSpec = T4) -> float:
    """Overall layer-level agreement fraction across all models."""
    guided = IntensityGuidedABFT(spec)
    agree = total = 0
    for name in list_models():
        for layer in guided.select_for_model(build_model(name)):
            total += 1
            if analytical_choice(layer.problem, spec) == layer.scheme:
                agree += 1
    return agree / total

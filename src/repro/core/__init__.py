"""The paper's contribution: intensity-guided, per-layer ABFT selection.

``profiler`` implements the CUTLASS-profiler-style pre-deployment
workflow (enumerate tile configurations x ABFT schemes, keep the
fastest); ``intensity_guided`` runs it per linear layer of a model and
selects the cheapest protection for each, returning ``plan``'s
:class:`DeploymentPlan`; ``overhead`` computes the paper's
execution-time-overhead metric; ``report`` renders results.
"""

from .profiler import PredeploymentProfiler, ProfileEntry
from .plan import DeploymentPlan, LayerPlan
from .intensity_guided import IntensityGuidedABFT, analytical_choice
from .overhead import overhead_percent, reduction_factor
from .report import model_overhead_table

__all__ = [
    "PredeploymentProfiler",
    "ProfileEntry",
    "DeploymentPlan",
    "LayerPlan",
    "IntensityGuidedABFT",
    "analytical_choice",
    "overhead_percent",
    "reduction_factor",
    "model_overhead_table",
]

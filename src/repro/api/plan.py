"""Deployment plans, re-exported from :mod:`repro.core.plan`.

Selection builds the plan, so the types live in :mod:`repro.core`;
this module keeps ``repro.api.plan`` importable under its old name.
"""

from ..core.plan import (
    PLAN_SCHEMA,
    PLAN_SCHEMA_VERSION,
    DeploymentPlan,
    LayerPlan,
    layer_plan_table,
)

__all__ = [
    "PLAN_SCHEMA",
    "PLAN_SCHEMA_VERSION",
    "DeploymentPlan",
    "LayerPlan",
    "layer_plan_table",
]

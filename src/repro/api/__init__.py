"""Deployment API: policy-driven protected sessions, end to end.

The paper's headline contribution is *end-to-end*: pick an ABFT scheme
per layer from the roofline/latency model, then run protected
inference — and fault campaigns — under that assignment.  This package
is the glue that composes the repo's analytic half (``repro.core``,
``repro.roofline``) with its numeric half (``repro.abft``,
``repro.nn``, ``repro.faults``) into one deployment workflow:

>>> import repro
>>> session = repro.deploy("mlp_bottom", "T4", batch=64)
>>> result = session.campaign(layer="fc1", seed=7).run_batch(100)
>>> result.coverage
1.0

* :mod:`~repro.api.policy` — :class:`SchemePolicy` implementations
  mapping a model + device to a per-layer scheme assignment;
* :mod:`~repro.api.plan` — re-exports :mod:`repro.core.plan`'s
  serializable :class:`DeploymentPlan`, the record selection returns
  (``repro deploy --json`` output ⇄ runnable input);
* :mod:`~repro.api.session` — the :class:`ProtectedSession` facade and
  the :func:`deploy` entry point.

See DESIGN.md §2 for the architecture.
"""

from ..core.plan import DeploymentPlan, LayerPlan, layer_plan_table
from .policy import (
    CallablePolicy,
    FixedPolicy,
    IntensityGuidedPolicy,
    SchemePolicy,
    as_policy,
)
from .session import ProtectedSession, deploy

__all__ = [
    "SchemePolicy",
    "IntensityGuidedPolicy",
    "FixedPolicy",
    "CallablePolicy",
    "as_policy",
    "DeploymentPlan",
    "LayerPlan",
    "layer_plan_table",
    "ProtectedSession",
    "deploy",
]

"""Fleet-scale deployment: plan registry, zoo sweeps, concurrent serving.

The single-pair deployment API (:func:`repro.deploy`) scales up here:

* :class:`PlanRegistry` — versioned, JSON-persisted storage of
  deployment plans keyed ``(model, device, policy)``, with
  :func:`plan_diff` rendering scheme and overhead deltas between any
  two plans;
* :func:`deploy_fleet` — sweep a model zoo across a device fleet,
  amortizing profiler work per device and prepared numeric state per
  device family;
* :class:`SessionServer` / :func:`serve_session` — an asyncio serving
  layer running each request's protected pass in a forked worker
  process that inherited the session.
"""

from .deploy import FleetDeployment, deploy_fleet
from .registry import (
    REGISTRY_SCHEMA,
    LayerChange,
    PlanDiff,
    PlanRegistry,
    RegistryKey,
    plan_diff,
)
from .serving import ServingReport, SessionServer, serve_session

__all__ = [
    "REGISTRY_SCHEMA",
    "FleetDeployment",
    "LayerChange",
    "PlanDiff",
    "PlanRegistry",
    "RegistryKey",
    "ServingReport",
    "SessionServer",
    "deploy_fleet",
    "plan_diff",
    "serve_session",
]

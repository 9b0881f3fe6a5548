"""Fleet deployment: sweep a model zoo across a device fleet at once.

:func:`deploy_fleet` is :func:`repro.deploy` at fleet scale — every
``(model, device)`` pair gets a policy-assigned plan and a running
:class:`~repro.api.ProtectedSession` — with the amortization the
single-pair API cannot express:

* **one policy instance for the whole sweep**: the analytic profiler
  caches per device, so identical layer shapes across the model zoo
  are profiled once per device, not once per pair;
* **one prepared cache per device family** (:attr:`repro.gpu.GPUSpec.
  family`): sessions for same-family devices share a
  :class:`~repro.abft.base.PreparedCache`, and because synthesized
  layer operands are deterministic in ``(seed, layer)``, the
  fault-invariant half of each layer's GEMM — padding, tile choice,
  the clean FP32 accumulation, operand checksums — executes once per
  ``(layer, family, scheme)``, not once per ``(layer, device)``.
  Whenever two family members assign a layer the same scheme (always,
  under a fixed policy; typically, under the guided policy, since
  family members share kernel behavior), that collapses to once per
  ``(layer, family)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..abft.base import PreparedCache
from ..api.policy import SchemePolicy, as_policy
from ..api.session import ProtectedSession
from ..config import DetectionConstants
from ..errors import ConfigurationError
from ..gpu.specs import GPUSpec, get_gpu
from ..nn.graph import ModelGraph
from ..nn.models import build_model
from ..utils import Table
from .registry import PlanRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.plan import DeploymentPlan
    from ..faults.recovery import RecoveryPolicy


@dataclass(frozen=True)
class FleetDeployment:
    """Everything :func:`deploy_fleet` stood up, queryable by pair.

    Attributes
    ----------
    sessions:
        ``(model, device)`` → the pair's running session.
    caches:
        Device family → the :class:`~repro.abft.base.PreparedCache`
        shared by that family's sessions.
    families:
        Device name → its family label.
    registry:
        The registry every produced plan was recorded in (a fresh one
        when the caller did not supply their own).
    policy_name:
        The policy that assigned every plan.
    """

    sessions: Mapping[tuple[str, str], ProtectedSession]
    caches: Mapping[str, PreparedCache]
    families: Mapping[str, str]
    registry: PlanRegistry
    policy_name: str

    #: Model names, in sweep order.
    models: tuple[str, ...] = field(default_factory=tuple)
    #: Device names, in sweep order.
    devices: tuple[str, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.sessions)

    def session(self, model: str, device: str) -> ProtectedSession:
        """The running session for one ``(model, device)`` pair.

        ``device`` accepts any alias :func:`repro.get_gpu` resolves
        (pairs are keyed by the spec's canonical name).
        """
        found = self.sessions.get((model, device))
        if found is None:
            try:
                canonical = get_gpu(device).name
            except ConfigurationError:
                canonical = device
            found = self.sessions.get((model, canonical))
        if found is None:
            pairs = sorted(self.sessions)
            raise ConfigurationError(
                f"fleet has no session for ({model!r}, {device!r}); "
                f"deployed pairs: {pairs}"
            )
        return found

    def plan(self, model: str, device: str) -> "DeploymentPlan":
        """The plan deployed on one ``(model, device)`` pair."""
        return self.session(model, device).plan

    def warm(self) -> "FleetDeployment":
        """Run one protected pass through every session.

        After warming, every ``(layer, family, scheme)`` triple's
        prepared state is resident in the family cache; subsequent
        passes and campaigns anywhere in the fleet reuse it.  Returns
        the deployment for chaining.
        """
        for session in self.sessions.values():
            session.run()
        return self

    def summary(self) -> Table:
        """One row per pair: family, scheme mix, predicted overhead."""
        table = Table(
            ["model", "device", "family", "schemes", "overhead (%)"],
            title=f"fleet deployment (policy {self.policy_name})",
        )
        for (model, device), session in sorted(self.sessions.items()):
            plan = session.plan
            mix = ", ".join(
                f"{token}x{count}"
                for token, count in sorted(plan.selection_counts.items())
            )
            table.add_row([
                model,
                device,
                self.families[device],
                mix,
                plan.guided_overhead_percent if plan.has_predictions else "-",
            ])
        return table


def deploy_fleet(
    models: "Sequence[str | ModelGraph] | str",
    devices: "Sequence[str | GPUSpec] | str",
    *,
    policy: "SchemePolicy | str" = "guided",
    registry: PlanRegistry | None = None,
    batch: int | None = None,
    h: int = 1080,
    w: int = 1920,
    seed: int = 0,
    detection: DetectionConstants | None = None,
    recovery: "RecoveryPolicy | None" = None,
) -> FleetDeployment:
    """Deploy every model on every device, amortizing per device family.

    Parameters
    ----------
    models:
        Model-zoo names (``repro.list_models()``) or prebuilt
        :class:`~repro.nn.ModelGraph` objects; a single name is
        accepted.  Duplicates are deduped, order preserved.
    devices:
        Device names (``repro.list_gpus()``) or specs; a single name
        is accepted.
    policy:
        Anything :func:`~repro.api.policy.as_policy` accepts; the one
        normalized policy assigns every pair, so its per-device
        profiler caches span the whole model zoo.
    registry:
        Record every produced plan here (new versions only when a plan
        changed).  Defaults to a fresh :class:`~repro.fleet.
        PlanRegistry`, returned on the deployment either way.
    batch, h, w:
        Model-zoo build arguments (ignored for prebuilt graphs).
    seed:
        Session seed.  Every session shares it, which is what makes
        same-shaped layers synthesize bit-identical operands across a
        family and lets the family cache collapse their clean GEMMs.
    detection, recovery:
        Forwarded to every :class:`~repro.api.ProtectedSession`.

    Returns
    -------
    FleetDeployment
        Sessions keyed ``(model, device)``, one shared cache per
        family, and the registry holding every plan.

    Example
    -------
    >>> import repro
    >>> fleet = repro.deploy_fleet(
    ...     ["mlp_bottom"], ["V100", "Jetson-AGX-Xavier"], batch=32)
    >>> len(fleet)
    2
    >>> fleet.families["V100"] == fleet.families["Jetson-AGX-Xavier"]
    True
    >>> fleet.registry.get("mlp_bottom", "V100").policy
    'guided'
    """
    resolved_policy = as_policy(policy)
    if registry is None:
        registry = PlanRegistry()

    graphs: list[ModelGraph] = []
    seen_models: set[str] = set()
    model_list = [models] if isinstance(models, (str, ModelGraph)) else models
    for entry in model_list:
        graph = (
            build_model(entry, batch=batch, h=h, w=w)
            if isinstance(entry, str)
            else entry
        )
        if graph.name not in seen_models:
            seen_models.add(graph.name)
            graphs.append(graph)
    if not graphs:
        raise ConfigurationError("deploy_fleet needs at least one model")

    specs: list[GPUSpec] = []
    seen_devices: set[str] = set()
    device_list = (
        [devices] if isinstance(devices, (str, GPUSpec)) else devices
    )
    for entry in device_list:
        spec = get_gpu(entry) if isinstance(entry, str) else entry
        if spec.name not in seen_devices:
            seen_devices.add(spec.name)
            specs.append(spec)
    if not specs:
        raise ConfigurationError("deploy_fleet needs at least one device")

    caches: dict[str, PreparedCache] = {}
    families: dict[str, str] = {}
    sessions: dict[tuple[str, str], ProtectedSession] = {}
    for graph in graphs:
        for spec in specs:
            families[spec.name] = spec.family
            # One unbounded cache per family: the layer-GEMM
            # realization holds exactly one entry per (layer, scheme),
            # so residency is bounded by the zoo itself.
            cache = caches.setdefault(spec.family, PreparedCache())
            plan = resolved_policy.assign(graph, spec)
            registry.put(plan)
            sessions[(graph.name, spec.name)] = ProtectedSession(
                plan,
                seed=seed,
                cache=cache,
                detection=detection,
                recovery=recovery,
            )
    return FleetDeployment(
        sessions=sessions,
        caches=caches,
        families=families,
        registry=registry,
        policy_name=resolved_policy.name,
        models=tuple(graph.name for graph in graphs),
        devices=tuple(spec.name for spec in specs),
    )

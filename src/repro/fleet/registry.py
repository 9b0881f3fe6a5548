"""Versioned storage and diffing of deployment plans, fleet-wide.

A fleet is many ``(model, device)`` pairs, each deployed under a
policy; what production needs on top of the single-pair API is a place
plans *live*: versioned per key, persisted as one JSON document, and
comparable — "what changed between the plan we ran last week and the
one the policy picks today?".  :class:`PlanRegistry` is that store and
:func:`plan_diff` that comparison, rendering per-layer scheme changes
and predicted-overhead deltas.
"""

from __future__ import annotations

import json
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..core.plan import DeploymentPlan
from ..errors import ConfigurationError, PlanError
from ..utils import Table

#: Schema tag of the persisted registry document.
REGISTRY_SCHEMA = "repro.plan-registry/v1"

#: Registry key: ``(model, device, policy)``; plans without a recorded
#: policy key under this label.
UNPOLICIED = "unspecified"


def _policy_key(policy: str | None) -> str:
    return policy if policy is not None else UNPOLICIED


@dataclass(frozen=True)
class RegistryKey:
    """One fleet slot: a model deployed on a device under a policy."""

    model: str
    device: str
    policy: str

    def __str__(self) -> str:
        return f"{self.model} @ {self.device} [{self.policy}]"


class PlanRegistry:
    """Versioned store of :class:`~repro.api.DeploymentPlan` objects.

    Plans are keyed ``(model, device, policy)``; every :meth:`put` of a
    *changed* plan appends a new version (starting at 1), while an
    identical re-deploy is idempotent and returns the existing version
    — re-running a fleet sweep does not inflate history.  The whole
    registry round-trips through one JSON document
    (:meth:`save`/:meth:`load`, :meth:`to_json`/:meth:`from_json`),
    each plan serialized under the versioned plan schema, so a registry
    written by one machine is a deployment input on another.

    The registry is thread-safe: a fleet sweep may :meth:`put` from
    concurrent deployment threads.

    Example
    -------
    >>> import repro
    >>> registry = repro.PlanRegistry()
    >>> session = repro.deploy("mlp_bottom", "T4", batch=32)
    >>> registry.put(session.plan)
    1
    >>> registry.put(session.plan)  # identical re-deploy: same version
    1
    >>> registry.get("mlp_bottom", "T4").device
    'T4'
    >>> loaded = repro.PlanRegistry.from_json(registry.to_json())
    >>> loaded.get("mlp_bottom", "T4") == session.plan
    True
    """

    def __init__(self) -> None:
        self._entries: dict[RegistryKey, list[DeploymentPlan]] = {}
        self._lock = threading.Lock()

    # -- structure ------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(plans) for plans in self._entries.values())

    def keys(self) -> list[RegistryKey]:
        """Every ``(model, device, policy)`` slot, sorted."""
        with self._lock:
            return sorted(
                self._entries,
                key=lambda k: (k.model, k.device, k.policy),
            )

    def __iter__(self) -> Iterator[RegistryKey]:
        return iter(self.keys())

    # -- store ----------------------------------------------------------
    def put(self, plan: DeploymentPlan) -> int:
        """Record a plan under its own ``(model, device, policy)`` key.

        Returns the plan's version: a new one when the plan differs
        from the key's latest, the existing one when it is identical
        (idempotent re-deploys).
        """
        key = RegistryKey(
            plan.model, plan.device, _policy_key(plan.policy)
        )
        with self._lock:
            plans = self._entries.setdefault(key, [])
            if plans and plans[-1] == plan:
                return len(plans)
            plans.append(plan)
            return len(plans)

    def _plans_for(  # repro: ignore[RL002] helper runs under the caller's lock
        self, model: str, device: str, policy: str | None
    ) -> tuple[RegistryKey, list[DeploymentPlan]]:
        matches = [
            key
            for key in self._entries
            if key.model == model
            and key.device == device
            and (policy is None or key.policy == _policy_key(policy))
        ]
        if not matches:
            known = ", ".join(str(k) for k in sorted(
                self._entries, key=lambda k: (k.model, k.device, k.policy)
            )) or "(empty registry)"
            raise ConfigurationError(
                f"no plan registered for {model!r} on {device!r}"
                + (f" under policy {policy!r}" if policy else "")
                + f"; registry holds: {known}"
            )
        if len(matches) > 1:
            raise ConfigurationError(
                f"{model!r} on {device!r} is registered under several "
                f"policies ({sorted(k.policy for k in matches)}); pass "
                f"policy= to pick one"
            )
        key = matches[0]
        return key, self._entries[key]

    def get(
        self,
        model: str,
        device: str,
        policy: str | None = None,
        *,
        version: int | None = None,
    ) -> DeploymentPlan:
        """The stored plan for one slot (latest version by default).

        ``policy`` may be omitted when the ``(model, device)`` pair is
        registered under exactly one policy.  ``version`` counts from 1.
        """
        with self._lock:
            key, plans = self._plans_for(model, device, policy)
            if version is None:
                return plans[-1]
            if not 1 <= version <= len(plans):
                raise ConfigurationError(
                    f"{key} has versions 1..{len(plans)}, not {version}"
                )
            return plans[version - 1]

    def versions(
        self, model: str, device: str, policy: str | None = None
    ) -> int:
        """How many versions one slot holds."""
        with self._lock:
            _, plans = self._plans_for(model, device, policy)
            return len(plans)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The whole registry as one stable JSON-ready document."""
        with self._lock:
            return {
                "schema": REGISTRY_SCHEMA,
                "entries": [
                    {
                        "model": key.model,
                        "device": key.device,
                        "policy": key.policy,
                        "version": version,
                        "plan": plan.to_dict(),
                    }
                    for key in sorted(
                        self._entries,
                        key=lambda k: (k.model, k.device, k.policy),
                    )
                    for version, plan in enumerate(
                        self._entries[key], start=1
                    )
                ],
            }

    def to_json(self, *, indent: int = 2) -> str:
        """JSON string of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanRegistry":
        """Rebuild a registry from its :meth:`to_dict` document."""
        try:
            schema = data.get("schema")
            entries = data["entries"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(
                f"not a plan registry document: {exc}"
            ) from None
        if schema != REGISTRY_SCHEMA:
            raise PlanError(
                f"plan registry declares schema {schema!r}, but this "
                f"build reads {REGISTRY_SCHEMA!r}"
            )
        registry = cls()
        for entry in entries:
            try:
                plan = DeploymentPlan.from_dict(entry["plan"])
            except (KeyError, TypeError) as exc:
                raise ConfigurationError(
                    f"malformed registry entry {entry!r}: {exc}"
                ) from None
            registry.put(plan)
        return registry

    @classmethod
    def from_json(cls, text: str) -> "PlanRegistry":
        """Rebuild a registry from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"registry is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)

    def save(self, path: "str | pathlib.Path") -> None:
        """Write the registry document to ``path``."""
        pathlib.Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "PlanRegistry":
        """Read a registry document from ``path``."""
        try:
            text = pathlib.Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read plan registry {str(path)!r}: {exc}"
            ) from None
        return cls.from_json(text)


@dataclass(frozen=True)
class LayerChange:
    """One layer's scheme assignment differing between two plans."""

    layer: str
    old: str | None  #: scheme token in the old plan (None: layer added)
    new: str | None  #: scheme token in the new plan (None: layer removed)


@dataclass(frozen=True)
class PlanDiff:
    """Structured difference between two deployment plans.

    ``changes`` lists every layer whose scheme assignment differs
    (including layers present in only one plan); the overhead fields
    carry each plan's predicted whole-model overhead when it has
    latency predictions (``None`` otherwise).
    """

    old: DeploymentPlan
    new: DeploymentPlan
    changes: tuple[LayerChange, ...] = field(default_factory=tuple)
    old_overhead_percent: float | None = None
    new_overhead_percent: float | None = None

    @property
    def identical(self) -> bool:
        """Whether the two plans assign every layer identically."""
        return not self.changes

    @property
    def overhead_delta_percent(self) -> float | None:
        """Predicted overhead change (new - old), when both predict."""
        if self.old_overhead_percent is None:
            return None
        if self.new_overhead_percent is None:
            return None
        return self.new_overhead_percent - self.old_overhead_percent

    def render(self) -> str:
        """Human-readable diff: per-layer scheme deltas + overheads."""
        title = (
            f"{self.old.model}: {self.old.device} "
            f"[{self.old.policy or UNPOLICIED}] -> {self.new.device} "
            f"[{self.new.policy or UNPOLICIED}]"
        )
        lines = [title]
        if self.identical:
            lines.append("  (identical scheme assignment)")
        else:
            table = Table(["layer", "old scheme", "new scheme"])
            for change in self.changes:
                table.add_row([
                    change.layer,
                    change.old if change.old is not None else "(absent)",
                    change.new if change.new is not None else "(absent)",
                ])
            lines.append(str(table))
        delta = self.overhead_delta_percent
        if delta is not None:
            lines.append(
                f"  predicted overhead: "
                f"{self.old_overhead_percent:.2f}% -> "
                f"{self.new_overhead_percent:.2f}% "
                f"({delta:+.2f} points)"
            )
        return "\n".join(lines)


def plan_diff(old: DeploymentPlan, new: DeploymentPlan) -> PlanDiff:
    """Diff two plans: per-layer scheme deltas and overhead movement.

    The plans need not target the same device or policy — diffing a
    model's T4 plan against its V100 plan is exactly how the paper's
    "selection differs per device" claim is inspected — but they must
    describe the same model.
    """
    if old.model != new.model:
        raise ConfigurationError(
            f"cannot diff plans for different models "
            f"({old.model!r} vs {new.model!r})"
        )
    old_schemes = old.assignment()
    new_schemes = new.assignment()
    changes = []
    for layer in list(old_schemes) + [
        name for name in new_schemes if name not in old_schemes
    ]:
        before = old_schemes.get(layer)
        after = new_schemes.get(layer)
        if before != after:
            changes.append(LayerChange(layer, before, after))
    return PlanDiff(
        old=old,
        new=new,
        changes=tuple(changes),
        old_overhead_percent=(
            old.guided_overhead_percent if old.has_predictions else None
        ),
        new_overhead_percent=(
            new.guided_overhead_percent if new.has_predictions else None
        ),
    )

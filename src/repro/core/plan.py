"""Deployment plans: layer → scheme token + predicted cost.

A :class:`DeploymentPlan` is the one record of a model's per-layer
scheme decision.  :meth:`~repro.core.IntensityGuidedABFT.
select_for_model` returns it (so does every
:class:`~repro.api.policy.SchemePolicy`), and a
:class:`~repro.api.session.ProtectedSession` consumes it: for every
linear layer of a model, the ABFT scheme token to deploy (see
:func:`repro.abft.scheme_from_token`) plus the latency model's
predicted per-layer times, so whole-model overheads remain computable
after the analytic machinery is gone.  Plans serialize to a stable JSON
schema (``to_json``/``from_json``), so a plan exported on one machine
is a runnable deployment input on another.  ``from_json`` also reads
files written by the old ``repro select --json`` export, whose layers
carry ``chosen`` instead of ``scheme``.

The types live in :mod:`repro.core` because selection builds them;
:mod:`repro.api.plan` re-exports them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping

from ..abft import Scheme, scheme_from_token
from ..errors import ConfigurationError, PlanError
from ..gemm.problem import GemmProblem
from ..utils import Table
from .overhead import overhead_percent

#: Schema tag written into every serialized plan.
PLAN_SCHEMA = "repro.deployment-plan/v1"

#: Explicit schema version written into every serialized plan.  Version
#: 1 is the historical pair of accepted-silently shapes (``to_dict``
#: output without a version field, and the old ``repro select --json``
#: export); version 2 is identical except that it *declares* itself.
#: Payloads without the field default-migrate to version 1.
PLAN_SCHEMA_VERSION = 2

#: Versions :meth:`DeploymentPlan.from_dict` knows how to read.
_KNOWN_SCHEMA_VERSIONS = frozenset({1, PLAN_SCHEMA_VERSION})


def _check_schema_version(data: Mapping[str, Any]) -> int:
    """Resolve a payload's declared schema version, or raise cleanly.

    Missing field → version 1 (the historical schemas, which never
    declared themselves).  Declared-but-unknown → :class:`PlanError`,
    so a plan written by a newer build fails with a version message
    rather than a misleading missing-field error.
    """
    try:
        version = data.get("schema_version", 1)
    except AttributeError:
        raise ConfigurationError(
            f"not a deployment plan: expected a JSON object, "
            f"got {type(data).__name__}"
        ) from None
    if not isinstance(version, int) or version not in _KNOWN_SCHEMA_VERSIONS:
        known = sorted(_KNOWN_SCHEMA_VERSIONS)
        raise PlanError(
            f"deployment plan declares schema_version {version!r}, but "
            f"this build only reads versions {known}; re-export the plan "
            f"or upgrade repro"
        )
    return version


@dataclass(frozen=True)
class LayerPlan:
    """One linear layer's deployment decision.

    Attributes
    ----------
    name:
        Linear-layer name within the model.
    scheme:
        Scheme token to deploy on this layer (registry name plus any
        constructor argument, e.g. ``"global_multi:2"``).
    m, n, k:
        The layer's GEMM dimensions.
    kind:
        ``"conv"`` / ``"linear"`` / ``"attention"`` provenance, when
        known.
    intensity:
        Padded arithmetic intensity of the GEMM, when known.
    baseline_s:
        Modeled unprotected execution time (latency model).
    scheme_times_s:
        Modeled execution time per candidate scheme token — what the
        policy arbitrated between; keys are scheme tokens.
    """

    name: str
    scheme: str
    m: int
    n: int
    k: int
    kind: str | None = None
    intensity: float | None = None
    baseline_s: float | None = None
    scheme_times_s: Mapping[str, float] = field(default_factory=dict)

    @property
    def problem(self) -> GemmProblem:
        """The layer's GEMM."""
        return GemmProblem(self.m, self.n, self.k)

    @property
    def chosen_time_s(self) -> float:
        """Modeled time under the deployed scheme."""
        return self._time_for(self.scheme)

    def _time_for(self, token: str) -> float:
        try:
            return self.scheme_times_s[token]
        except KeyError:
            raise ConfigurationError(
                f"layer {self.name!r} carries no modeled time for scheme "
                f"{token!r}; have {sorted(self.scheme_times_s)}"
            ) from None

    def overhead_percent(self, token: str | None = None) -> float:
        """Predicted overhead of one candidate (default: the chosen one)."""
        if self.baseline_s is None:
            raise ConfigurationError(
                f"layer {self.name!r} carries no baseline time; the plan "
                f"was built without latency predictions"
            )
        return overhead_percent(
            self._time_for(token or self.scheme), self.baseline_s
        )


@dataclass(frozen=True)
class DeploymentPlan:
    """A whole model's per-layer scheme assignment plus predicted cost.

    The serializable contract between the analytic half of the paper
    (policy selection on a device) and the numeric half (protected
    sessions, fault campaigns): everything a deployment needs, nothing
    tied to live profiler state.
    """

    model: str
    device: str
    layers: tuple[LayerPlan, ...]
    batch: int | None = None
    input_desc: str | None = None
    policy: str | None = None

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigurationError(
                f"deployment plan for {self.model!r} has no layers"
            )
        seen: set[str] = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ConfigurationError(
                    f"deployment plan for {self.model!r} assigns layer "
                    f"{layer.name!r} twice"
                )
            seen.add(layer.name)
            # Tokens are validated eagerly so a hand-edited plan fails
            # at load time, not at first execution.
            scheme_from_token(layer.scheme)

    # -- structure ------------------------------------------------------
    def __iter__(self) -> Iterator[LayerPlan]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def layer_names(self) -> list[str]:
        """Planned layer names, in execution order."""
        return [layer.name for layer in self.layers]

    def layer(self, name: str) -> LayerPlan:
        """The named layer's plan entry."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ConfigurationError(
            f"plan for {self.model!r} has no layer {name!r}; "
            f"layers are {self.layer_names}"
        )

    def assignment(self) -> dict[str, str]:
        """Layer name → scheme token, in execution order."""
        return {layer.name: layer.scheme for layer in self.layers}

    def build_schemes(self) -> dict[str, Scheme]:
        """Instantiate the plan's schemes, one shared instance per token.

        Layers deploying the same token share one :class:`Scheme`
        instance, so prepared state cached under its
        :attr:`~repro.abft.base.Scheme.cache_token` is shared wherever
        operands coincide.
        """
        by_token: dict[str, Scheme] = {}
        return {
            layer.name: by_token.setdefault(
                layer.scheme, scheme_from_token(layer.scheme)
            )
            for layer in self.layers
        }

    @property
    def selection_counts(self) -> dict[str, int]:
        """How many layers deploy each scheme token."""
        counts: dict[str, int] = {}
        for layer in self.layers:
            counts[layer.scheme] = counts.get(layer.scheme, 0) + 1
        return counts

    # -- predicted whole-model cost --------------------------------------
    @property
    def has_predictions(self) -> bool:
        """Whether every layer carries modeled times."""
        return all(
            layer.baseline_s is not None and layer.scheme_times_s
            for layer in self.layers
        )

    def _require_predictions(self) -> None:
        if not self.has_predictions:
            raise ConfigurationError(
                f"plan for {self.model!r} carries no latency predictions "
                f"(policy {self.policy!r}); overheads are unavailable"
            )

    @property
    def baseline_s(self) -> float:
        """Predicted unprotected execution time of the whole model."""
        self._require_predictions()
        return sum(layer.baseline_s for layer in self.layers)  # type: ignore[misc]

    def scheme_total_s(self, token: str) -> float:
        """Predicted total time under one uniform scheme."""
        self._require_predictions()
        return sum(layer._time_for(token) for layer in self.layers)

    @property
    def guided_total_s(self) -> float:
        """Predicted total time under the plan's per-layer assignment."""
        self._require_predictions()
        return sum(layer.chosen_time_s for layer in self.layers)

    def scheme_overhead_percent(self, token: str) -> float:
        """Predicted whole-model overhead of one uniform scheme."""
        return overhead_percent(self.scheme_total_s(token), self.baseline_s)

    @property
    def guided_overhead_percent(self) -> float:
        """Predicted whole-model overhead of the plan's assignment."""
        return overhead_percent(self.guided_total_s, self.baseline_s)

    # -- validation -----------------------------------------------------
    def validate_layer_names(self, names: Iterable[str]) -> None:
        """Require the plan to cover exactly the given linear layers."""
        names = list(names)
        missing = set(names) - set(self.layer_names)
        extra = set(self.layer_names) - set(names)
        if missing or extra:
            raise ConfigurationError(
                f"plan for {self.model!r} does not match the model's "
                f"linear layers: missing {sorted(missing)}, "
                f"unknown {sorted(extra)}"
            )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Stable dictionary schema of the plan."""
        return {
            "schema": PLAN_SCHEMA,
            "schema_version": PLAN_SCHEMA_VERSION,
            "model": self.model,
            "device": self.device,
            "batch": self.batch,
            "input_desc": self.input_desc,
            "policy": self.policy,
            "layers": [
                {
                    "layer": layer.name,
                    "kind": layer.kind,
                    "gemm": {"m": layer.m, "n": layer.n, "k": layer.k},
                    "arithmetic_intensity": layer.intensity,
                    "scheme": layer.scheme,
                    "baseline_s": layer.baseline_s,
                    "scheme_times_s": dict(layer.scheme_times_s),
                }
                for layer in self.layers
            ],
        }

    def to_json(self, *, indent: int = 2) -> str:
        """JSON string of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeploymentPlan":
        """Load a plan from its dict schema *or* an old selection export.

        Accepts both :meth:`to_dict` output and the schema the old
        ``repro select --json`` printed (layers carry ``chosen``
        instead of ``scheme``, plus whole-model totals that are
        ignored), so files saved in that form stay deployment input.

        Payloads declare themselves via ``schema_version``; historical
        payloads without the field default-migrate to version 1 (the
        same two accepted shapes).  A payload declaring a version this
        build does not know raises :class:`~repro.errors.PlanError`
        instead of being half-parsed.
        """
        _check_schema_version(data)
        try:
            model = data["model"]
            device = data["device"]
            raw_layers = data["layers"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"not a deployment plan: missing field {exc}"
            ) from None
        layers = []
        for entry in raw_layers:
            try:
                gemm = entry["gemm"]
                layers.append(
                    LayerPlan(
                        name=entry["layer"],
                        scheme=entry.get("scheme") or entry["chosen"],
                        m=int(gemm["m"]),
                        n=int(gemm["n"]),
                        k=int(gemm["k"]),
                        kind=entry.get("kind"),
                        intensity=entry.get("arithmetic_intensity"),
                        baseline_s=entry.get("baseline_s"),
                        scheme_times_s=dict(entry.get("scheme_times_s", {})),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed plan layer entry {entry!r}: {exc}"
                ) from None
        return cls(
            model=model,
            device=device,
            layers=tuple(layers),
            batch=data.get("batch"),
            input_desc=data.get("input_desc"),
            policy=data.get("policy") or (
                "guided" if "guided" in data else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "DeploymentPlan":
        """Load a plan from :meth:`to_json` or an old ``select --json`` file."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def with_device(self, device: str) -> "DeploymentPlan":
        """The same assignment restamped for another device label."""
        return replace(self, device=device)


def layer_plan_table(
    plan: DeploymentPlan,
    *,
    title: str | None = None,
    max_rows: int | None = None,
) -> Table:
    """Render a plan's per-layer assignment as an ASCII table.

    A plan with latency predictions gets one overhead column per
    candidate token it priced, in the order selection profiled them;
    ``scheme`` names the one deployed.
    """
    tokens = (
        list(dict.fromkeys(t for layer in plan for t in layer.scheme_times_s))
        if plan.has_predictions
        else []
    )
    table = Table(
        ["layer", "M", "N", "K", "AI", "scheme"] + [f"{t} (%)" for t in tokens],
        title=title or (
            f"{plan.model} on {plan.device}: deployment plan"
            + (f" (policy {plan.policy})" if plan.policy else "")
        ),
    )
    rows = plan.layers[:max_rows] if max_rows else plan.layers
    for layer in rows:
        table.add_row([
            layer.name,
            layer.m,
            layer.n,
            layer.k,
            layer.intensity if layer.intensity is not None else "-",
            layer.scheme,
            *(
                layer.overhead_percent(t) if t in layer.scheme_times_s else "-"
                for t in tokens
            ),
        ])
    return table

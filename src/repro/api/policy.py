"""Scheme policies: model + device → per-layer deployment plan.

A *policy* is the pluggable decision rule of the deployment API: given
a shape-level model (:class:`~repro.nn.ModelGraph`) and a target device
(:class:`~repro.gpu.GPUSpec`), produce a :class:`~repro.api.plan.
DeploymentPlan`.  Three implementations cover the paper and the common
escape hatches:

* :class:`IntensityGuidedPolicy` — the paper's headline contribution,
  wrapping :class:`repro.core.IntensityGuidedABFT` (profile the
  candidates per layer, deploy the cheapest);
* :class:`FixedPolicy` — one scheme token everywhere (the paper's
  uniform baselines): the same selection over a single candidate, so
  the plan is still priced by the latency model;
* :class:`CallablePolicy` — any user function mapping ``(model, spec)``
  to a layer → token assignment (or a full plan), validated against
  the model's layers.

:func:`as_policy` normalizes what user-facing entry points accept:
policy objects pass through, strings become policies (``"guided"``,
``"fixed:global"``, or a bare scheme token), callables are wrapped.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

from ..abft import scheme_from_token, split_dtype_token
from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..core.intensity_guided import DEFAULT_CANDIDATES, IntensityGuidedABFT
from ..core.plan import DeploymentPlan, LayerPlan
from ..errors import ConfigurationError
from ..gpu.specs import GPUSpec
from ..nn.graph import ModelGraph

#: What a user callable may return: a finished plan, or layer → token.
PolicyResult = "DeploymentPlan | Mapping[str, str]"


@runtime_checkable
class SchemePolicy(Protocol):
    """The policy contract: assign a scheme to every linear layer."""

    #: Human-readable policy identifier, stamped into produced plans.
    name: str

    def assign(self, model: ModelGraph, spec: GPUSpec) -> DeploymentPlan:
        """Produce the deployment plan for ``model`` on ``spec``."""
        ...  # pragma: no cover - protocol


class IntensityGuidedPolicy:
    """The paper's policy: per-layer cheapest-scheme selection (§5.3).

    Wraps :class:`repro.core.IntensityGuidedABFT`; the produced plan
    freezes both the winning token per layer and every candidate's
    modeled time, so uniform-baseline overheads stay reportable from
    the serialized plan alone.

    ``dtype="int8"`` arbitrates over the quantized pipeline instead:
    candidates are profiled on the device's INT8 throughput with
    one-byte operands, and the winning tokens carry ``@int8`` so the
    plan deploys quantized executors.
    """

    name = "guided"

    def __init__(
        self,
        *,
        candidates: Sequence[str] = DEFAULT_CANDIDATES,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        dtype: str = "fp16",
    ) -> None:
        self.candidates = tuple(candidates)
        self.constants = constants
        self.dtype = dtype
        if dtype != "fp16":
            self.name = f"guided@{dtype}"
        # One IntensityGuidedABFT (hence one profiler cache) per device:
        # assigning many models through one policy dedupes identical
        # layer shapes across all of them, like the drivers always did.
        self._guided: dict[GPUSpec, IntensityGuidedABFT] = {}

    def _guided_for(self, spec: GPUSpec) -> IntensityGuidedABFT:
        guided = self._guided.get(spec)
        if guided is None:
            guided = IntensityGuidedABFT(
                spec,
                candidates=self.candidates,
                constants=self.constants,
                dtype=self.dtype,
            )
            self._guided[spec] = guided
        return guided

    def assign(self, model: ModelGraph, spec: GPUSpec) -> DeploymentPlan:
        return self._guided_for(spec).select_for_model(model, policy=self.name)


class FixedPolicy(IntensityGuidedPolicy):
    """Deploy one scheme token on every linear layer.

    The uniform baselines of the paper's figures: the guided selection
    over one candidate, so the plan carries the same predicted times
    (the profiler also prices the unprotected baseline).  An ``@int8``
    token prices the device's INT8 pipe with one-byte operands.
    """

    def __init__(
        self,
        token: str,
        *,
        constants: ModelConstants = DEFAULT_CONSTANTS,
    ) -> None:
        # Fail on a bad token at policy construction, not at assign time.
        scheme_from_token(token)
        base, dtype = split_dtype_token(token)
        super().__init__(candidates=(base,), constants=constants, dtype=dtype)
        self.token = token
        self.name = f"fixed:{token}"


class CallablePolicy:
    """Adapt a user function into a :class:`SchemePolicy`.

    The function receives ``(model, spec)`` and returns either a
    finished :class:`DeploymentPlan` (used as-is) or a mapping from
    linear-layer name to scheme token.  Mappings must cover *exactly*
    the model's layers — a missing layer would deploy unprotected
    while the user believes it is covered, so both missing and unknown
    names raise :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        fn: Callable[[ModelGraph, GPUSpec], "PolicyResult"],
        *,
        name: str | None = None,
    ) -> None:
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "callable")

    def assign(self, model: ModelGraph, spec: GPUSpec) -> DeploymentPlan:
        result = self.fn(model, spec)
        if isinstance(result, DeploymentPlan):
            return result
        if not isinstance(result, Mapping):
            raise ConfigurationError(
                f"policy callable {self.name!r} must return a "
                f"DeploymentPlan or a layer->token mapping, got "
                f"{type(result).__name__}"
            )
        layer_names = [layer.name for layer in model]
        missing = set(layer_names) - set(result)
        unknown = set(result) - set(layer_names)
        if missing or unknown:
            raise ConfigurationError(
                f"policy callable {self.name!r} assignment does not match "
                f"model {model.name!r}: missing {sorted(missing)}, "
                f"unknown {sorted(unknown)}"
            )
        layers = tuple(
            LayerPlan(
                name=layer.name,
                scheme=result[layer.name],
                m=layer.problem.m,
                n=layer.problem.n,
                k=layer.problem.k,
                kind=layer.kind,
                intensity=layer.problem.arithmetic_intensity(padded=True),
            )
            for layer in model
        )
        return DeploymentPlan(
            model=model.name,
            device=spec.name,
            layers=layers,
            batch=model.batch,
            input_desc=model.input_desc,
            policy=self.name,
        )


def as_policy(policy: "SchemePolicy | str | Callable") -> SchemePolicy:
    """Normalize a policy argument into a :class:`SchemePolicy`.

    * a policy object (anything with ``assign``) passes through;
    * ``"guided"`` (or ``"guided@int8"``) → :class:`IntensityGuidedPolicy`;
    * ``"fixed:TOKEN"`` or a bare scheme token → :class:`FixedPolicy`;
    * any other callable → :class:`CallablePolicy`.
    """
    if isinstance(policy, str):
        base, dtype = split_dtype_token(policy)
        if base == IntensityGuidedPolicy.name:
            return IntensityGuidedPolicy(dtype=dtype)
        token = policy.removeprefix("fixed:")
        return FixedPolicy(token)
    if hasattr(policy, "assign"):
        return policy
    if callable(policy):
        return CallablePolicy(policy)
    raise ConfigurationError(
        f"cannot interpret {policy!r} as a scheme policy; pass a policy "
        f"object, 'guided', 'fixed:TOKEN', a scheme token, or a callable"
    )

"""Intensity-guided ABFT: per-layer adaptive scheme selection (paper §5.3).

For every linear layer of a NN, profile the candidate ABFT schemes and
choose the one with the lowest execution time.  The winner correlates
with the layer's arithmetic intensity relative to the device CMR —
bandwidth-bound layers pick thread-level ABFT, compute-bound layers pick
global ABFT — which is the paper's core observation and gives the
approach its name.

By construction the selection is never slower than the best uniform
scheme ("intensity-guided ABFT, by design, always performs at least as
well as global ABFT", §6.2), and the tests pin that invariant.
"""

from __future__ import annotations

from typing import Sequence

from ..abft import scheme_from_token
from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..errors import ProfilingError
from ..gemm.problem import GemmProblem
from ..gpu.specs import GPUSpec
from ..nn.graph import ModelGraph
from .plan import DeploymentPlan, LayerPlan
from .profiler import PredeploymentProfiler

#: The two schemes intensity-guided ABFT arbitrates between (paper §5.3).
DEFAULT_CANDIDATES: tuple[str, ...] = ("global", "thread_onesided")


def analytical_choice(problem: GemmProblem, spec: GPUSpec) -> str:
    """Model-free selection rule (paper §7.2): compare AI to CMR.

    Layers with arithmetic intensity below the device CMR are
    bandwidth bound and predicted to prefer thread-level ABFT; the rest
    prefer global ABFT.  The empirical profiler refines this; the
    agreement between the two is itself an experiment
    (``repro experiments sec72_agreement``).
    """
    intensity = problem.arithmetic_intensity(padded=True)
    return "thread_onesided" if intensity <= spec.cmr else "global"


class IntensityGuidedABFT:
    """Per-layer adaptive ABFT selection for a model on a device.

    The result is the deployment record itself: a
    :class:`~repro.core.plan.LayerPlan` per layer (the chosen token plus
    every candidate's modeled time) and a
    :class:`~repro.core.plan.DeploymentPlan` per model.

    Parameters
    ----------
    spec:
        Target device.
    candidates:
        Scheme tokens to arbitrate between (registry names, optionally
        with a constructor argument such as ``"global_multi:2"``);
        defaults to the paper's pair (global, one-sided thread-level).
        A single candidate prices one uniform scheme, which is how
        :class:`~repro.api.policy.FixedPolicy` plans.
    constants:
        Latency-model constants.  Under ``dtype="int8"`` the operand
        width is forced to one byte regardless of what is passed.
    profiler:
        Optionally inject a pre-built profiler (shares its cache).
    dtype:
        Numeric pipeline to price and deploy: ``"fp16"`` (default) or
        ``"int8"``.  INT8 selection profiles the quantized schemes on
        :meth:`GPUSpec.for_dtype`'s INT8 throughput with one-byte
        operands, and the chosen tokens carry the ``@int8`` suffix so
        deployment plans build quantized executors.
    """

    def __init__(
        self,
        spec: GPUSpec,
        *,
        candidates: Sequence[str] = DEFAULT_CANDIDATES,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        profiler: PredeploymentProfiler | None = None,
        dtype: str = "fp16",
    ) -> None:
        if not candidates:
            raise ProfilingError("intensity-guided ABFT needs candidate schemes")
        self.dtype = dtype
        self.spec = spec.for_dtype(dtype)  # validates dtype, too
        if dtype == "int8":
            constants = constants.with_overrides(fp16_bytes=1)
        self.candidates = tuple(candidates)
        self.constants = constants
        # Deployment token -> scheme.  The profiler keys its entries by
        # scheme name, so two candidates may not share one.
        self._schemes = {
            token: scheme_from_token(token)
            for token in dict.fromkeys(map(self._token, self.candidates))
        }
        names = [scheme.name for scheme in self._schemes.values()]
        if len(set(names)) < len(names):
            raise ProfilingError(
                f"candidates {list(self._schemes)} share a scheme name; "
                f"the profiler prices one entry per name"
            )
        self.profiler = profiler or PredeploymentProfiler(
            self.spec, schemes=list(self._schemes.values()), constants=constants
        )

    # ------------------------------------------------------------------
    def _token(self, candidate: str) -> str:
        """The deployment token for one candidate on this pipeline."""
        return candidate if self.dtype == "fp16" else f"{candidate}@{self.dtype}"

    def _layer_plan(
        self, name: str, problem: GemmProblem, kind: str | None
    ) -> LayerPlan:
        entries = self.profiler.profile(problem)
        times = {
            token: entries[scheme.name].time_s
            for token, scheme in self._schemes.items()
        }
        return LayerPlan(
            name=name,
            scheme=min(times, key=lambda t: times[t]),
            m=problem.m,
            n=problem.n,
            k=problem.k,
            kind=kind,
            intensity=problem.arithmetic_intensity(padded=True),
            baseline_s=entries["none"].time_s,
            scheme_times_s=times,
        )

    def select_for_problem(self, problem: GemmProblem, *, name: str = "") -> LayerPlan:
        """Profile one layer and choose its cheapest protection."""
        return self._layer_plan(name or problem.label or str(problem), problem, None)

    def select_for_model(
        self, graph: ModelGraph, *, policy: str | None = None
    ) -> DeploymentPlan:
        """Run the per-layer selection over a whole model.

        ``policy`` labels the plan with the policy that asked for it.
        """
        return DeploymentPlan(
            model=graph.name,
            device=self.spec.name,
            layers=tuple(
                self._layer_plan(layer.name, layer.problem, layer.kind)
                for layer in graph
            ),
            batch=graph.batch,
            input_desc=graph.input_desc,
            policy=policy,
        )

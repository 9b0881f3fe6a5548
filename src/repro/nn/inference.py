"""Numeric protected inference for small sequential models.

Runs a model layer by layer, executing every linear layer through an
ABFT scheme (per-layer assignable, as intensity-guided ABFT requires),
with optional fault injection into chosen layers.  Nonlinear operations
(activations, pools) are executed directly — the paper replicates them,
which is cheap and out of scope for the GEMM-focused overhead study.

This engine is used by the examples and the fault-injection tests; the
shape-only benchmarks never execute numerics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..abft.base import ExecutionOutcome, PreparedCache, PreparedWeights, Scheme
from ..abft.none import NoProtection
from ..config import DetectionConstants
from ..gemm.tiles import TileConfig
from ..errors import ModelZooError, ShapeError
from ..faults.model import FaultSpec
from ..faults.recovery import RecoveryPolicy, attempt_recovery
from ..gemm.im2col import conv_weights_to_gemm, im2col
from .layers import Conv2dSpec, LinearSpec, pool_output_shape


class _Op:
    """Base class for runnable ops (internal).

    ``row_local`` declares that output row ``i`` depends only on input
    row ``i``, with the same bytes whatever other rows share the call.
    A row is a row of a 2-D activation, or a pixel ``(b, h, w)`` of an
    NCHW one, which a row-local op takes as a ``(rows, C, 1, 1)``
    batch of images.  A propagation replay runs a row-local op on the
    rows a fault changed alone (DESIGN.md §3).
    """

    is_linear = False
    row_local = False

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


class ReLU(_Op):
    """Rectified linear activation, applied in FP16."""

    row_local = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, np.float16(0.0)).astype(np.float16)


class Flatten(_Op):
    """Flatten NCHW activations to (batch, features)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"Flatten expects NCHW input, got {x.ndim}-D")
        return x.reshape(x.shape[0], -1)


class MaxPool2d(_Op):
    """Max pooling with floor semantics."""

    def __init__(self, kernel: int, stride: int) -> None:
        self.kernel = kernel
        self.stride = stride

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"MaxPool2d expects NCHW input, got {x.ndim}-D")
        b, c, h, w = x.shape
        ho, wo = pool_output_shape(h, w, kernel=self.kernel, stride=self.stride)
        sb, sc, sh, sw = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(b, c, ho, wo, self.kernel, self.kernel),
            strides=(sb, sc, sh * self.stride, sw * self.stride, sh, sw),
            writeable=False,
        )
        return windows.max(axis=(4, 5)).astype(np.float16)


class GlobalAvgPool(_Op):
    """Adaptive average pool to 1x1 (keeps NCHW rank)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"GlobalAvgPool expects NCHW input, got {x.ndim}-D")
        return x.mean(axis=(2, 3), keepdims=True, dtype=np.float32).astype(np.float16)


class Conv2d(_Op):
    """Convolution executed as an im2col GEMM through an ABFT scheme."""

    is_linear = True

    def __init__(self, spec: Conv2dSpec, weights: np.ndarray, *, name: str = "conv") -> None:
        if spec.groups != 1:
            raise ModelZooError(
                f"{name}: numeric inference supports non-grouped convs only "
                f"(the paper's substitution, footnote 3)"
            )
        expected = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        if weights.shape != expected:
            raise ShapeError(f"{name}: weights must be {expected}, got {weights.shape}")
        self.spec = spec
        self.name = name
        self.weights = weights.astype(np.float16)
        self.b_matrix = conv_weights_to_gemm(self.weights)
        # Only a 1x1, stride-1, unpadded conv maps each input pixel to
        # the output pixel at the same coordinates and no other.
        self.row_local = spec.kernel == 1 and spec.stride == 1 and spec.padding == 0

    def lower(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
        """im2col the input; returns (A, B, (batch, Ho, Wo))."""
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expects NCHW input, got {x.ndim}-D")
        ho, wo = self.spec.output_hw(x.shape[2], x.shape[3])
        a = im2col(
            x,
            kernel=(self.spec.kernel, self.spec.kernel),
            stride=(self.spec.stride, self.spec.stride),
            padding=(self.spec.padding, self.spec.padding),
        )
        return a.astype(np.float16), self.b_matrix, (x.shape[0], ho, wo)

    def reshape_output(self, c: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
        """GEMM output rows back to NCHW."""
        batch, ho, wo = dims
        return c.reshape(batch, ho, wo, self.spec.out_channels).transpose(0, 3, 1, 2)


class Linear(_Op):
    """Fully-connected layer executed as a GEMM through an ABFT scheme."""

    is_linear = True
    row_local = True

    def __init__(self, spec: LinearSpec, weights: np.ndarray, *, name: str = "linear") -> None:
        expected = (spec.in_features, spec.out_features)
        if weights.shape != expected:
            raise ShapeError(f"{name}: weights must be {expected}, got {weights.shape}")
        self.spec = spec
        self.name = name
        self.weights = weights.astype(np.float16)

    def lower(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
        """The GEMM view of this layer: ``(activations, weights, None)``.

        Every linear op exposes the same ``lower``/``reshape_output``
        pair so the inference and replay loops dispatch uniformly; a
        plain FC layer has no reshape context.
        """
        return x.astype(np.float16), self.weights, None

    def reshape_output(self, c: np.ndarray, ctx: None) -> np.ndarray:
        """GEMM output is already the layer output."""
        return c


@dataclass
class LayerOutcome:
    """Per-linear-layer record of one protected inference.

    ``retries``/``recovered``/``degraded`` describe what the pass's
    :class:`~repro.faults.RecoveryPolicy` (if any) did about a
    detection on this layer: how many re-executions ran, whether one
    came back clean (``outcome`` is then that clean retry, bit-identical
    to a fault-free execution), or whether the budget was exhausted and
    the detected output was propagated anyway.
    """

    name: str
    scheme: str
    outcome: ExecutionOutcome
    retries: int = 0
    recovered: bool = False
    degraded: bool = False

    @property
    def detected(self) -> bool:
        return self.outcome.detected


@dataclass
class InferenceResult:
    """Output of one protected forward pass."""

    output: np.ndarray
    layer_outcomes: list[LayerOutcome] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """True if any layer's ABFT check fired."""
        return any(rec.detected for rec in self.layer_outcomes)

    @property
    def recovered(self) -> bool:
        """True if any layer's detection was retried back to clean."""
        return any(rec.recovered for rec in self.layer_outcomes)

    @property
    def degraded(self) -> bool:
        """True if any layer exhausted its retry budget and propagated."""
        return any(rec.degraded for rec in self.layer_outcomes)

    @property
    def total_retries(self) -> int:
        """Recovery re-executions summed over all layers."""
        return sum(rec.retries for rec in self.layer_outcomes)


@dataclass(frozen=True)
class TraceStep:
    """One linear layer of a traced clean pass.

    Attributes
    ----------
    name, op_index:
        The layer's name and its position in the model's op list.
    a, b:
        The lowered GEMM operands (im2col'd activations for convs).
    tile:
        The tile configuration the layer's prepared state is pinned to.
    dims:
        The op's ``lower`` reshape context — conv dims ``(batch, Ho,
        Wo)``, an attention op's carried columns — fed back to its
        ``reshape_output``; None for plain Linear layers.
    outcome:
        The clean protected execution outcome.
    """

    name: str
    op_index: int
    a: np.ndarray
    b: np.ndarray
    tile: TileConfig
    dims: object | None
    outcome: ExecutionOutcome


@dataclass(frozen=True)
class InferenceTrace:
    """A clean forward pass with per-linear-layer GEMM state captured.

    Produced by :meth:`ProtectedInference.trace`; consumed by
    :class:`~repro.faults.PropagationCampaign`, which replays corrupted
    activations through the traced downstream layers.  ``activations``
    holds every op's clean output, in op order (the last is
    ``output``): the clean side of each op boundary, into which a
    replay splices the rows a fault changed.
    """

    x: np.ndarray
    output: np.ndarray
    result: InferenceResult
    steps: tuple[TraceStep, ...]
    activations: tuple[np.ndarray, ...]

    def step(self, name: str) -> TraceStep:
        """The traced step of the named linear layer."""
        for step in self.steps:
            if step.name == name:
                return step
        raise ModelZooError(
            f"trace has no linear layer {name!r}; traced layers are "
            f"{[s.name for s in self.steps]}"
        )


class SequentialModel:
    """An ordered list of runnable ops with named linear layers."""

    def __init__(self, ops: Sequence[_Op], *, name: str = "model") -> None:
        if not ops:
            raise ModelZooError("SequentialModel needs at least one op")
        self.name = name
        self.ops = list(ops)

    @property
    def linear_names(self) -> list[str]:
        """Names of the linear (GEMM-backed) layers, in order."""
        return [op.name for op in self.ops if op.is_linear]  # type: ignore[attr-defined]

    @staticmethod
    def random_weights_conv(
        spec: Conv2dSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """He-style FP16 initialization for a conv layer."""
        fan_in = spec.in_channels * spec.kernel * spec.kernel
        scale = float(np.sqrt(2.0 / fan_in))
        shape = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        return (rng.standard_normal(shape) * scale).astype(np.float16)

    @staticmethod
    def random_weights_linear(
        spec: LinearSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """He-style FP16 initialization for a linear layer."""
        scale = float(np.sqrt(2.0 / spec.in_features))
        shape = (spec.in_features, spec.out_features)
        return (rng.standard_normal(shape) * scale).astype(np.float16)


class ProtectedInference:
    """Run a :class:`SequentialModel` under per-layer ABFT protection.

    Parameters
    ----------
    model:
        The runnable model.
    schemes:
        Either a single scheme applied to every linear layer, or a
        mapping from linear-layer name to scheme (what intensity-guided
        ABFT produces); missing names fall back to ``default_scheme``.
        Every mapping key must name a linear layer of ``model`` —
        a typo'd key would otherwise leave a layer silently
        unprotected while the caller believes it is covered, so
        unknown names raise :class:`~repro.errors.ModelZooError`.
    cache:
        Optional shared :class:`~repro.abft.base.PreparedCache`.  When
        given, every linear layer's protected GEMM executes through
        the cache: repeated forward passes over identical activations
        reuse one prepared state per layer (the clean GEMM runs
        exactly once), and fault campaigns drawing from the *same*
        cache (:class:`repro.api.ProtectedSession` wires this up) hit
        the very entries the forward passes built.
    detection:
        Detection constants every layer's consistency check is
        evaluated under; ``None`` (default) resolves per layer to the
        layer scheme's :attr:`~repro.abft.Scheme.default_detection`,
        so FP16 and INT8 layers each get the tolerance matched to
        their pipeline.
    record_operands:
        Record each linear layer's lowered GEMM operands ``(a, b,
        tile)`` from the most recent *clean-equivalent* forward pass
        in :attr:`recorded_operands` — fault-free passes, and faulty
        passes whose every faulted layer was detected and recovered
        (the recovered output is bit-identical to clean); passes with
        undetected or unrecovered faults propagate corrupted
        activations downstream and are skipped — what
        ``ProtectedSession.campaign`` hands to a
        :class:`~repro.faults.FaultCampaign` so the campaign attacks
        exactly the GEMM the forward pass executed.

    Weights are constant across forward passes, so the engine caches a
    :class:`~repro.abft.base.PreparedWeights` per linear layer: the
    padded ``B`` and the weight-side checksum reductions are built on
    the first pass and reused bit-identically on every subsequent pass —
    the paper's §2.5 offline weight-checksum precomputation, applied
    engine-wide.  The state is m-independent, so one entry per layer
    serves every activation row count (batch size, spatial resolution);
    the first pass pins each layer's tile via its activation row count.
    """

    def __init__(
        self,
        model: SequentialModel,
        schemes: Scheme | Mapping[str, Scheme],
        *,
        default_scheme: Scheme | None = None,
        cache: PreparedCache | None = None,
        record_operands: bool = False,
        detection: DetectionConstants | None = None,
    ) -> None:
        self.model = model
        if isinstance(schemes, Scheme):
            self._scheme_map: Mapping[str, Scheme] = {
                name: schemes for name in model.linear_names
            }
        else:
            self._scheme_map = dict(schemes)
            unknown = set(self._scheme_map) - set(model.linear_names)
            if unknown:
                raise ModelZooError(
                    f"scheme assignment targets layers not in model "
                    f"{model.name!r}: {sorted(unknown)}; linear layers are "
                    f"{model.linear_names}"
                )
        self._default = default_scheme or NoProtection()
        self._weight_cache: dict[str, PreparedWeights] = {}
        self.detection = detection
        self.cache = cache
        self._record_operands = record_operands
        #: Per-layer ``(a, b, tile)`` of the most recent forward pass
        #: (populated only with ``record_operands=True``).
        self.recorded_operands: dict[
            str, tuple[np.ndarray, np.ndarray, TileConfig]
        ] = {}
        # Guards the engine's two pieces of cross-pass mutable state
        # (the weight cache and the operand record) so concurrent
        # forward passes through one engine stay safe: weight-side
        # state is prepared exactly once per layer, and each pass's
        # record commits as a unit.  Per-pass state (``staged``) is
        # already pass-local.
        self._lock = threading.Lock()

    def scheme_for(self, layer_name: str) -> Scheme:
        """The scheme protecting the named linear layer."""
        return self._scheme_map.get(layer_name, self._default)

    def _weights_for(self, name: str, scheme: Scheme, b: np.ndarray, m: int) -> PreparedWeights:
        """Cached weight-side state for one linear layer.

        Keyed by layer alone: the scheme per layer is fixed for the
        engine's lifetime, ``B`` never changes, and the weight-side
        state is m-independent, so one entry serves every forward pass
        regardless of input shape (conv ``m`` varies with batch and
        spatial dims).  The first pass pins the layer's tile via its
        activation row count; later passes at other row counts execute
        with that tile.
        """
        with self._lock:
            prepared = self._weight_cache.get(name)
            if prepared is None:
                # Prepare inside the critical section (mirroring
                # PreparedCache.get) so racing passes build the state
                # exactly once — the amortization contracts count on
                # it — and every cache touch stays under the lock
                # (RL002).
                prepared = scheme.prepare_weights(b, m=m)
                self._weight_cache[name] = prepared
        return prepared

    def _run_linear(
        self,
        name: str,
        a: np.ndarray,
        b: np.ndarray,
        faults: Sequence[FaultSpec],
        recovery: RecoveryPolicy | None,
        staged: dict[str, tuple[np.ndarray, np.ndarray, TileConfig]] | None,
    ) -> LayerOutcome:
        """One linear layer's protected GEMM, through the shared cache
        when the engine owns one (bit-identical either way — the
        prepared state is fault-invariant), plus the recovery retry
        loop when a policy applies.  Retries re-enter the same cached
        prepared state, so a recovery costs one re-reduction, not a
        re-prepared GEMM."""
        scheme = self.scheme_for(name)
        weights = self._weights_for(name, scheme, b, a.shape[0])
        if staged is not None:
            staged[name] = (a, b, weights.tile)

        def execute(specs: Sequence[FaultSpec]) -> ExecutionOutcome:
            if self.cache is not None:
                prepared = self.cache.get(scheme, a, b, weights=weights)
                return prepared.inject(specs, detection=self.detection)
            return scheme.execute(
                a, b, faults=specs, weights=weights, detection=self.detection
            )

        attempt = attempt_recovery(
            execute, execute(faults), faults, recovery,
            context=f"layer {name!r}",
        )
        return LayerOutcome(
            name=name,
            scheme=attempt.outcome.scheme,
            outcome=attempt.outcome,
            retries=attempt.retries,
            recovered=attempt.recovered,
            degraded=attempt.degraded,
        )

    @staticmethod
    def _clean_equivalent(
        result: InferenceResult, faults: Mapping[str, Sequence[FaultSpec]]
    ) -> bool:
        """Whether a pass's recorded operands describe clean GEMMs.

        True when every layer that had faults injected ended
        detected-and-recovered (its propagated output is bit-identical
        to a fault-free execution, so every downstream activation —
        hence every recorded ``A`` operand — is the clean one) and no
        layer degraded.  A fault-free pass is trivially clean.
        """
        return all(
            (rec.recovered or not faults.get(rec.name)) and not rec.degraded
            for rec in result.layer_outcomes
        )

    def run(
        self,
        x: np.ndarray,
        *,
        faults: Mapping[str, Sequence[FaultSpec]] | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> InferenceResult:
        """Forward pass with optional fault injection and recovery.

        Parameters
        ----------
        x:
            Input activations (NCHW for conv models, (batch, features)
            for MLPs).
        faults:
            Mapping from linear-layer name to fault specs injected into
            that layer's GEMM.
        recovery:
            Optional :class:`~repro.faults.RecoveryPolicy`: each
            layer's detection triggers bounded re-execution of that
            layer alone (transient retries run fault-free, sticky ones
            re-inject), then either raises or flags-and-propagates per
            the policy.  Per-layer results land on
            :class:`LayerOutcome`; :attr:`InferenceResult.recovered` /
            ``degraded`` / ``total_retries`` aggregate them.
        """
        faults = dict(faults or {})
        unknown = set(faults) - set(self.model.linear_names)
        if unknown:
            raise ModelZooError(f"fault targets not in model: {sorted(unknown)}")

        # Operands are staged during the pass and committed only if the
        # pass ends *clean-equivalent*: fault-free, or every faulted
        # layer detected-and-recovered (the recovered output is
        # bit-identical to clean, so every staged activation is the
        # clean one).  Undetected or degraded faults leave
        # `recorded_operands` describing the last clean-equivalent pass.
        staged: dict[str, tuple[np.ndarray, np.ndarray, TileConfig]] | None = (
            {} if self._record_operands else None
        )
        result = InferenceResult(output=np.asarray(x, dtype=np.float16))
        activation = result.output
        for op in self.model.ops:
            if op.is_linear:
                a, b, dims = op.lower(activation)
                rec = self._run_linear(
                    op.name, a, b, faults.get(op.name, ()), recovery, staged
                )
                result.layer_outcomes.append(rec)
                activation = op.reshape_output(rec.outcome.c, dims)
            else:
                activation = op.forward(activation)
        result.output = activation
        if staged is not None and self._clean_equivalent(result, faults):
            # Commit the whole pass as a unit so a concurrent reader
            # (or a racing pass) never observes a half-updated record.
            with self._lock:
                self.recorded_operands.update(staged)
        return result

    def trace(self, x: np.ndarray) -> "InferenceTrace":
        """Clean forward pass capturing every linear layer's GEMM view.

        Runs the model fault-free (through the shared cache when the
        engine owns one) and records, per linear layer, the lowered
        operands, the pinned tile, the conv reshape dims, and the
        clean execution outcome, and every op's output activation —
        the downstream state a :class:`~repro.faults.PropagationCampaign`
        replays corrupted activations through.  Does not touch
        :attr:`recorded_operands`.
        """
        result = InferenceResult(output=np.asarray(x, dtype=np.float16))
        activation = result.output
        steps: list[TraceStep] = []
        activations: list[np.ndarray] = []
        staged: dict[str, tuple[np.ndarray, np.ndarray, TileConfig]] = {}
        for idx, op in enumerate(self.model.ops):
            if op.is_linear:
                a, b, dims = op.lower(activation)
                rec = self._run_linear(op.name, a, b, (), None, staged)
                result.layer_outcomes.append(rec)
                steps.append(
                    TraceStep(
                        name=op.name,
                        op_index=idx,
                        a=a,
                        b=b,
                        tile=staged[op.name][2],
                        dims=dims,
                        outcome=rec.outcome,
                    )
                )
                activation = op.reshape_output(rec.outcome.c, dims)
            else:
                activation = op.forward(activation)
            activations.append(activation)
        result.output = activation
        return InferenceTrace(
            x=np.asarray(x, dtype=np.float16),
            output=activation,
            result=result,
            steps=tuple(steps),
            activations=tuple(activations),
        )

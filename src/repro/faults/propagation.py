"""End-to-end SDC propagation campaigns with detection-triggered recovery.

The GEMM-level campaigns (:class:`~repro.faults.FaultCampaign`) score
detection *at the struck layer* and stop.  The paper's premise is one
level up: what matters is whether an undetected fault silently corrupts
the **model output** — a top-1 flip, or output divergence beyond
tolerance.  :class:`PropagationCampaign` closes that gap: each trial
injects a fault set into one layer's GEMM via the prepared struck-check
engine, carries the corrupted activations through the remaining layers
of the numeric model, and classifies the end-to-end outcome against
the ABFT verdict:

===============  =========  ================  =============================
outcome          detected?  output corrupted  meaning
===============  =========  ================  =============================
masked           no         no                absorbed by quantization /
                                              downstream nonlinearities
detected         yes        yes               ABFT caught real harm
benign-alarm     yes        no                alarm without end-to-end harm
undetected-SDC   no         yes               **silent data corruption**
===============  =========  ================  =============================

Downstream replay is cheap by construction: a corrupted *input*
activation yields a self-consistent downstream GEMM (checksums computed
from the corrupted operand agree with the corrupted output — ABFT
cannot, and should not, fire there), so downstream layers replay
through a raw tiled executor with no checksum work.  The campaign owns
that replay state: per downstream layer a private executor and the
layer's padded weights, widened once to the accumulate dtype, both
built at construction from the session's shared
:class:`~repro.abft.base.PreparedCache` — per trial only the struck
activations are re-padded and multiplied, and no cached entry is ever
written.  Trials whose faults are absorbed by the FP16 output
quantization (or land in the padding region) skip the replay entirely:
their output *is* the clean output.

On detection, an optional :class:`~repro.faults.RecoveryPolicy` runs
the same bounded retry loop the inference engine uses; every recovered
trial is asserted byte-identical to the clean pass at the layer
boundary.  Replay is a pure function of the struck output's bytes, so
the end-to-end half of that check (``verify_recovery``) runs once per
campaign, at construction, on the clean struck output.

See DESIGN.md §3 for the taxonomy, retry semantics, and degradation
modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError, FaultInjectionError
from ..gemm.executor import executor_for
from .campaign import FaultCampaign, _check_draw
from .injector import faulted_site_values
from .model import FaultSpec, SpecArrays
from .options import CampaignOptions, resolve_option
from .parallel import ShardPoolOwner
from .recovery import RecoveryPolicy, attempt_recovery

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..nn.inference import ProtectedInference, TraceStep


class PropagationOutcome(Enum):
    """End-to-end classification of one propagation trial (pre-recovery)."""

    MASKED = "masked"
    DETECTED = "detected"
    BENIGN_ALARM = "benign-alarm"
    UNDETECTED_SDC = "undetected-sdc"


@dataclass(frozen=True)
class PropagationRecord:
    """One propagation trial: GEMM verdict, end-to-end harm, recovery.

    Attributes
    ----------
    faults:
        The trial's injected fault set (struck layer's GEMM).
    detected:
        The struck layer's ABFT verdict.
    output_corrupted:
        The model output diverged from the clean pass (top-1 flip or
        per-element divergence beyond the campaign tolerances), before
        any recovery.
    top1_flip:
        Any sample's argmax changed.
    divergence:
        Largest absolute output divergence (float64; ``inf`` when the
        corrupted output went non-finite, ``0.0`` for masked trials).
    outcome:
        The detection x corruption cross-classification.
    retries, recovered, degraded:
        What the recovery policy did about a detection (all zero/False
        without a policy).
    residual_sdc:
        Output corruption that survives the recovery path: undetected
        SDC always, and detected-but-unrecovered corruption under
        ``flag-and-propagate``.  Recovered trials never carry it.
    """

    faults: tuple[FaultSpec, ...]
    detected: bool
    output_corrupted: bool
    top1_flip: bool
    divergence: float
    outcome: PropagationOutcome
    retries: int = 0
    recovered: bool = False
    degraded: bool = False
    residual_sdc: bool = False


@dataclass
class PropagationResult:
    """Aggregated propagation-campaign statistics."""

    model: str
    layer: str
    scheme: str
    records: list[PropagationRecord] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.records)

    def count(self, outcome: PropagationOutcome) -> int:
        """Trials classified as ``outcome``."""
        return sum(r.outcome is outcome for r in self.records)

    @property
    def n_detected(self) -> int:
        return sum(r.detected for r in self.records)

    @property
    def n_corrupted(self) -> int:
        """Trials whose pre-recovery output was corrupted."""
        return sum(r.output_corrupted for r in self.records)

    @property
    def n_undetected_sdc(self) -> int:
        return self.count(PropagationOutcome.UNDETECTED_SDC)

    @property
    def undetected_sdc_rate(self) -> float:
        """Fraction of trials that silently corrupted the output."""
        if not self.records:
            return 0.0
        return self.n_undetected_sdc / self.n_trials

    @property
    def n_recovered(self) -> int:
        return sum(r.recovered for r in self.records)

    @property
    def n_degraded(self) -> int:
        return sum(r.degraded for r in self.records)

    @property
    def n_residual_sdc(self) -> int:
        """Trials whose corruption survives the recovery path."""
        return sum(r.residual_sdc for r in self.records)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    def crosstab(self) -> dict[tuple[bool, bool], int]:
        """``(detected, output_corrupted) -> count`` over all trials."""
        table: dict[tuple[bool, bool], int] = {
            (False, False): 0, (False, True): 0,
            (True, False): 0, (True, True): 0,
        }
        for r in self.records:
            table[(r.detected, r.output_corrupted)] += 1
        return table


class PropagationCampaign(ShardPoolOwner):
    """Inject into one layer, propagate to the model output, classify.

    Parameters
    ----------
    engine:
        A :class:`~repro.nn.ProtectedInference` owning a shared
        :class:`~repro.abft.base.PreparedCache` (required — the replay
        draws every layer's clean prepared state from it).
        :meth:`repro.api.ProtectedSession.propagation_campaign` builds
        one from a deployed session.
    layer:
        The linear layer whose GEMM the faults strike.
    x:
        Model input activations; the campaign runs (and pins) one
        clean traced pass over them at construction.
    seed:
        Seed for the random fault draws (same stream as a
        :class:`~repro.faults.FaultCampaign` with this seed).
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy` applied to every
        detected trial.  A policy with ``on_exhausted="raise"``
        propagates :class:`~repro.errors.RecoveryError` out of
        :meth:`run` on the first exhausted budget; campaigns normally
        measure with ``"flag-and-propagate"``.
    output_rtol, output_atol:
        Per-element divergence tolerances classifying output
        corruption (``|out - clean| > atol + rtol * |clean|``, in
        float64; non-finite divergence always corrupts).
    batch_size:
        Trials per chunked injection call (default: the underlying
        GEMM campaign's, :attr:`FaultCampaign.BATCH_SIZE`).
    verify_recovery:
        Assert that a recovered trial's *end-to-end* output bit-equals
        the clean pass.  Every recovered trial's struck output is
        byte-checked against the clean one (always), and replay is a
        pure function of those bytes, so this replays the clean struck
        output once, at construction, and raises
        :class:`~repro.errors.FaultInjectionError` unless it
        reproduces the clean model output.  On by default; disabling
        it skips that one replay.
    workers:
        Default worker-process count for :meth:`run`/:meth:`run_batch`
        (both also take a per-call override).  ``None`` or ``1`` runs
        in-process; ``N > 1`` shards each run's trials across a process
        pool sharing the campaign's prepared state, clean baselines,
        and downstream replay ops via shared memory
        (:mod:`repro.faults.parallel`), record-for-record identical to
        the in-process result for a fixed seed.  The pool starts on the
        first sharded run and serves every later one that needs no
        more workers; :meth:`close`, a ``with`` block, or the
        campaign's collection shuts it down.  Each trial replays the
        downstream layers, so a few dozen trials already amortize the
        few milliseconds a warm pool adds to a run.
    options:
        A :class:`~repro.faults.CampaignOptions`; ``seed`` /
        ``batch_size`` / ``workers`` apply here (each settable either
        way, not both), ``significance_factor`` forwards to the struck
        layer's GEMM campaign, and ``detection`` / ``cache``
        must agree with the engine's own (they are engine-derived).
        ``workers`` is options-only (its keyword alias was removed
        after one deprecated release).

    Examples
    --------
    >>> import numpy as np, repro
    >>> from repro.nn import build_runnable, runnable_input_shape
    >>> session = repro.deploy(
    ...     "mlp_bottom", "T4", batch=4,
    ...     runnable=build_runnable("mlp_bottom", batch=4, seed=0))
    >>> x = np.ones(runnable_input_shape("mlp_bottom", batch=4), np.float16)
    >>> result = session.propagation_campaign("fc1", x=x, seed=3).run_batch(6)
    >>> len(result.records)
    6
    """

    def __init__(
        self,
        engine: "ProtectedInference",
        layer: str,
        x: np.ndarray,
        *,
        seed: int | None = None,
        recovery: RecoveryPolicy | None = None,
        output_rtol: float = 1e-3,
        output_atol: float = 1e-3,
        batch_size: int | None = None,
        verify_recovery: bool = True,
        options: CampaignOptions | None = None,
    ) -> None:
        # workers travels only on the options object.
        workers = options.workers if options is not None else None
        seed = resolve_option(options, "PropagationCampaign", "seed", seed)
        batch_size = resolve_option(
            options, "PropagationCampaign", "batch_size", batch_size
        )
        if seed is None:
            seed = 0
        if options is not None:
            # detection and cache are the engine's by construction; an
            # options object that disagrees is a wiring error, not a
            # request this campaign can honor.
            if (
                options.detection is not None
                and options.detection != engine.detection
            ):
                raise ConfigurationError(
                    "PropagationCampaign inherits detection constants "
                    "from its engine; options.detection disagrees"
                )
            if options.cache is not None and options.cache is not engine.cache:
                raise ConfigurationError(
                    "PropagationCampaign inherits its PreparedCache "
                    "from its engine; options.cache is a different cache"
                )
        if engine.cache is None:
            raise ConfigurationError(
                "PropagationCampaign needs an engine with a shared "
                "PreparedCache: the downstream replay draws every "
                "layer's clean prepared state from it"
            )
        if workers is not None and workers < 1:
            raise FaultInjectionError(
                f"workers must be >= 1, got {workers}"
            )
        self.engine = engine
        self.layer = layer
        self.recovery = recovery
        self.output_rtol = float(output_rtol)
        self.output_atol = float(output_atol)
        self.verify_recovery = verify_recovery
        self.workers = workers
        # Shard workers rebuild the campaign without the engine; keep
        # everything the trial loop touches on the campaign itself.
        self._detection = engine.detection

        # One clean traced pass pins the baseline: per-layer operands,
        # tiles, clean outcomes, and the clean model output.
        trace = engine.trace(x)
        if trace.result.detected:
            raise FaultInjectionError(
                f"model {engine.model.name!r} flags a fault on clean "
                f"data; detection tolerances are miscalibrated"
            )
        self.trace = trace
        names = [s.name for s in trace.steps]
        if layer not in names:
            raise ConfigurationError(
                f"model {engine.model.name!r} has no linear layer "
                f"{layer!r}; linear layers are {names}"
            )
        self._step: "TraceStep" = trace.step(layer)
        self._step_dims = self._step.dims

        # The struck layer rides a full GEMM campaign (shared cache →
        # shared prepared state with the traced pass) for fault drawing,
        # chunk sizing, and the clean-baseline sanity check.
        self._gemm = FaultCampaign(
            engine.scheme_for(layer),
            self._step.a,
            self._step.b,
            tile=self._step.tile,
            options=CampaignOptions(
                detection=engine.detection,
                seed=seed,
                batch_size=batch_size,
                cache=engine.cache,
                significance_factor=(
                    options.significance_factor if options else None
                ),
            ),
        )
        self._prepared = self._gemm.prepared
        self._batch_size = self._gemm.batch_size
        # The struck layer's accumulator→output lowering (FP16 downcast
        # on the float pipeline, dequantize on INT8) comes from its
        # prepared executor, so replayed site values match the scheme's
        # own epilogue bit-for-bit.
        self._epilogue = self._prepared.executor.epilogue
        self._clean_c16 = self._step.outcome.c  # struck layer's clean FP16
        self._clean_output = trace.output
        self._clean_top1 = self._top1(trace.output)

        # Downstream replay state, owned by the campaign: the ops after
        # the struck layer, each linear one paired with a private
        # executor (INT8 pad_a records the activation scale on its
        # executor, so the cached entry's must not replay) and its
        # padded weights widened once to the accumulate dtype (exact;
        # 4 bytes per weight element) — per-trial work is pad_a +
        # multiply + crop, nothing else.
        idx = self._step.op_index
        self._struck_op = engine.model.ops[idx]
        self._downstream: list = []
        for op in engine.model.ops[idx + 1:]:
            if not op.is_linear:
                self._downstream.append((op, None, None))
                continue
            st = trace.step(op.name)
            prepared = engine.cache.get(
                engine.scheme_for(op.name), st.a, st.b, tile=st.tile
            )
            executor = executor_for(
                prepared.problem, prepared.tile, prepared.executor.dtype
            )
            if executor.dtype == "int8":
                executor.b_scale = prepared.executor.b_scale
            b_acc = prepared.b_pad.astype(prepared.c_clean.dtype)
            self._downstream.append((op, executor, b_acc))

        if verify_recovery:
            replayed = np.ascontiguousarray(self._replay(self._clean_c16))
            clean_out = np.ascontiguousarray(self._clean_output)
            if replayed.tobytes() != clean_out.tobytes():
                raise FaultInjectionError(
                    f"replaying the clean output of layer {layer!r} "
                    f"does not reproduce the clean model output "
                    f"bit-exactly"
                )

    # ------------------------------------------------------------------
    #: What a shard worker's campaign holds: the fault-invariant state a
    #: shard pool exports once, and the settings every sharded run
    #: ships, since callers may change them between runs.
    _SHARD_STATE = (
        "layer", "_detection", "_batch_size", "_prepared", "_clean_c16",
        "_clean_output", "_clean_top1", "_struck_op", "_downstream",
        "_step_dims",
    )
    _SHARD_SETTINGS = ("recovery", "output_rtol", "output_atol")

    def _shard_state(self) -> dict:
        """Everything fault-invariant a shard worker needs, by attribute.

        The heavyweight entries (the struck layer's prepared execution,
        with its clean checks forced here, the clean baselines, and the
        downstream ops with the campaign's replay executors and widened
        weights) are ndarray-bearing object graphs that
        :func:`repro.faults.parallel.export_payload` parks in shared
        memory — a worker attaches zero-copy views, never re-preparing
        or re-tracing anything.
        """
        self._prepared.clean_reductions
        self._prepared.clean_comparison(self._detection)
        return {name: getattr(self, name) for name in self._SHARD_STATE}

    def _shard_settings(self) -> dict:
        """The run-time settings a sharded run ships with its trials."""
        return {name: getattr(self, name) for name in self._SHARD_SETTINGS}

    @classmethod
    def _from_state(cls, state: dict, settings: dict) -> "PropagationCampaign":
        """Rebuild a replay-capable campaign from its shard state.

        The shard-worker constructor: no engine, no trace, no GEMM
        campaign — just the attributes :meth:`_run_records`,
        :meth:`_replay`, and the recovery check touch (the end-to-end
        check already ran at the parent's construction).  Workers never
        draw randomness or aggregate results; the parent owns both.
        """
        self = object.__new__(cls)
        self.engine = self.trace = self._gemm = self._step = self.workers = None
        for name, value in {**state, **settings}.items():
            setattr(self, name, value)
        self._epilogue = self._prepared.executor.epilogue
        return self

    # ------------------------------------------------------------------
    @property
    def downstream_ops(self) -> list[str]:
        """Names of the ops corruption propagates through, in order."""
        return [type(op).__name__ if executor is None else op.name
                for op, executor, _ in self._downstream]

    @staticmethod
    def _top1(output: np.ndarray) -> np.ndarray:
        """Per-sample argmax over the flattened output."""
        flat = output.reshape(output.shape[0], -1) if output.ndim > 1 else (
            output.reshape(1, -1)
        )
        return np.argmax(flat, axis=1)

    def _replay(self, c16: np.ndarray) -> np.ndarray:
        """Carry a (possibly corrupted) struck-layer FP16 output to the
        model output, bit-identically to what a protected forward pass
        over the same corrupted activations would compute.

        Downstream linear layers run the raw tiled GEMM on the
        campaign's own executors and widened weights — the protected
        path's epilogue (accumulate, crop, lower to FP16) with zero
        checksum work, which is sound because a consistent GEMM over
        corrupted inputs is exactly what the protected pass computes
        and cannot flag.  Reads no shared state, so the result is a
        pure function of ``c16``'s bytes.
        """
        activation = self._struck_op.reshape_output(c16, self._step_dims)
        for op, executor, b_acc in self._downstream:
            if executor is None:
                activation = op.forward(activation)
                continue
            a, _, dims = op.lower(activation)
            acc = executor.multiply(executor.pad_a(a), b_acc)
            c = executor.epilogue(executor.crop(acc))
            activation = op.reshape_output(c, dims)
        return activation

    def _classify_output(self, final: np.ndarray) -> tuple[bool, bool, float]:
        """``(corrupted, top1_flip, divergence)`` of one replayed output."""
        clean = self._clean_output.astype(np.float64)
        out = final.astype(np.float64)
        with np.errstate(invalid="ignore"):
            diff = np.abs(out - clean)
            tol = self.output_atol + self.output_rtol * np.abs(clean)
            # NaN diff fails `<=`, so non-finite corruption always trips.
            diverged = bool(np.any(~(diff <= tol)))
        top1_flip = bool(np.any(self._top1(final) != self._clean_top1))
        finite = diff[np.isfinite(diff)]
        divergence = float(finite.max(initial=0.0)) if finite.size else 0.0
        if diff.size and not np.isfinite(diff).all():
            divergence = float("inf")
        return diverged or top1_flip, top1_flip, divergence

    # ------------------------------------------------------------------
    def run_batch(
        self,
        n_trials: int,
        *,
        faults_per_trial: int = 1,
        workers: int | None = None,
    ) -> PropagationResult:
        """``n_trials`` random trials, all faults drawn up front."""
        _check_draw(n_trials, faults_per_trial)
        return self.run(n_trials, faults_per_trial=faults_per_trial, workers=workers)

    def run(
        self,
        n_trials: int,
        specs: Sequence["FaultSpec | Sequence[FaultSpec]"] | None = None,
        *,
        faults_per_trial: int | None = None,
        workers: int | None = None,
    ) -> PropagationResult:
        """Run ``n_trials`` random trials, or the provided fault sets.

        The arguments follow :meth:`repro.faults.FaultCampaign.run`'s
        contract, and random trials are drawn from the same stream a
        :class:`~repro.faults.FaultCampaign` with this seed draws.

        ``workers`` overrides the campaign's default worker count for
        this run: with ``N > 1`` the trials shard across a process pool
        (:mod:`repro.faults.parallel`) sharing the campaign's prepared
        and replay state via shared memory.  Per-trial records are
        independent of shard boundaries, so the merged result is
        record-for-record identical to in-process execution; a worker
        failure raises :class:`~repro.errors.CampaignError`.
        """
        trials, batch = self._gemm._trial_batch(n_trials, specs, faults_per_trial)
        result = PropagationResult(
            model=self.engine.model.name,
            layer=self.layer,
            scheme=self._gemm.scheme.name,
        )
        n_workers = self._gemm._resolve_workers(
            workers if workers is not None else self.workers, len(batch)
        )
        if n_workers > 1:
            from .parallel import run_propagation_sharded

            result.records = run_propagation_sharded(self, batch, workers=n_workers)
        else:
            if trials is batch:
                trials = batch.tolist()
            result.records = self._run_records(batch, trials)
        return result

    def _run_records(
        self, batch: SpecArrays, trials: Sequence[tuple[FaultSpec, ...]]
    ) -> list[PropagationRecord]:
        """Every trial's record, in chunks; ``trials[i]`` is batch trial
        ``i``'s fault tuple, which its record and recovery carry."""
        records: list[PropagationRecord] = []
        for start in range(0, len(batch), self._batch_size):
            stop = start + self._batch_size
            records.extend(self._run_chunk(batch[start:stop], trials[start:stop]))
        return records

    def _run_chunk(
        self, chunk: SpecArrays, trials: Sequence[tuple[FaultSpec, ...]]
    ) -> list[PropagationRecord]:
        """Inject one trial chunk, replay unmasked trials, classify."""
        prepared = self._prepared
        sites = faulted_site_values(prepared.c_clean, chunk)
        outcomes = prepared.inject_batch(
            trials, detection=self._detection, sites=sites,
        )

        # Quantization-masked fast path: a site only affects the model
        # output if it lies inside the logical crop AND its FP16 value
        # differs from the clean one.  Trials with no such site keep
        # the clean output bit-exactly — no replay needed.
        m, n = prepared.problem.m, prepared.problem.n
        in_crop = (sites.rows < m) & (sites.cols < n)
        changed = np.zeros(len(sites), dtype=bool)
        if in_crop.any():
            sel = np.flatnonzero(in_crop)
            new16 = self._epilogue(sites.values[sel])
            old16 = self._clean_c16[sites.rows[sel], sites.cols[sel]]
            changed[sel] = new16 != old16
        per_trial: list[list[int]] = [[] for _ in range(len(chunk))]
        for j, t in enumerate(sites.trials):
            per_trial[int(t)].append(j)

        records: list[PropagationRecord] = []
        for i, faults in enumerate(trials):
            detected = bool(outcomes[i].detected)
            live = [j for j in per_trial[i] if changed[j]]
            if not live:
                corrupted, top1_flip, divergence = False, False, 0.0
            else:
                c16 = self._clean_c16.copy()
                rows = sites.rows[live]
                cols = sites.cols[live]
                c16[rows, cols] = self._epilogue(sites.values[live])
                corrupted, top1_flip, divergence = self._classify_output(
                    self._replay(c16)
                )
            if detected:
                outcome = (
                    PropagationOutcome.DETECTED
                    if corrupted
                    else PropagationOutcome.BENIGN_ALARM
                )
            else:
                outcome = (
                    PropagationOutcome.UNDETECTED_SDC
                    if corrupted
                    else PropagationOutcome.MASKED
                )
            attempt = attempt_recovery(
                lambda specs: prepared.inject(
                    specs, detection=self._detection
                ),
                outcomes[i],
                faults,
                self.recovery if detected else None,
                context=f"layer {self.layer!r} trial {i}",
            )
            if attempt.recovered:
                self._check_recovered(attempt.outcome)
            records.append(
                PropagationRecord(
                    faults=faults,
                    detected=detected,
                    output_corrupted=corrupted,
                    top1_flip=top1_flip,
                    divergence=divergence,
                    outcome=outcome,
                    retries=attempt.retries,
                    recovered=attempt.recovered,
                    degraded=attempt.degraded,
                    residual_sdc=corrupted and not attempt.recovered,
                )
            )
        return records

    def _check_recovered(self, outcome) -> None:
        """Assert a recovered execution is bit-identical to clean.

        Byte equality of the FP16 layer outputs (NaN-safe).  The
        recovered output therefore replays to exactly what the clean
        struck output replays to, which ``verify_recovery`` checked
        end to end once, at construction.
        """
        recovered_c = np.ascontiguousarray(outcome.c)
        clean_c = np.ascontiguousarray(self._clean_c16)
        if recovered_c.tobytes() != clean_c.tobytes():
            raise FaultInjectionError(
                f"recovered execution of layer {self.layer!r} is not "
                f"bit-identical to the clean layer output — the "
                f"recovery contract is broken"
            )

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
through a raw tiled executor with no checksum work.  At construction
the campaign takes, per downstream layer, the executor, weight scale,
padded activations and activation scale of the layer's entry in the
session's shared :class:`~repro.abft.base.PreparedCache`, the layer's
traced FP16 output, and the entry's padded weights widened once to the
accumulate dtype.  Per trial a downstream layer re-pads its
activations and recomputes only the logical rows whose padded bytes
differ from the clean pass's (every row when an INT8 activation scale
moved), writing them into a copy of its traced output; a layer with no
changed row passes its traced output on untouched, so a fault that a
ReLU absorbs skips every later GEMM.  That is bit-identical to a full
recompute because GEMM row ``i`` reads only row ``i`` of ``A`` and a
row's chunked accumulation does not depend on the rows beside it; with
``verify_recovery`` on, construction checks the second premise on the
host at hand.  Executors are immutable and padding returns the
activation's scale as a value, so a replay writes nothing shared.
Trials whose faults are absorbed by the FP16 output quantization (or
land in the padding region) skip the replay entirely: their output
*is* the clean output.

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
from .campaign import FaultCampaign, _check_draw
from .injector import faulted_site_values
from .model import FaultSpec, SpecArrays
from .options import CampaignOptions, resolve_option
from .parallel import ShardPoolOwner
from .recovery import RecoveryPolicy, attempt_recovery

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..gemm.executor import TiledGemm
    from ..nn.inference import ProtectedInference, TraceStep


@dataclass(frozen=True)
class _DownstreamGemm:
    """One downstream linear layer's replay state, from the clean trace.

    ``b_acc`` is the cached entry's padded weights widened once to the
    accumulate dtype (exact; 4 bytes per weight element); ``a_pad``,
    ``a_scale`` and ``c`` are the clean pass's padded activations,
    their scale and the layer's FP16 output (read-only).
    """

    executor: "TiledGemm"
    b_acc: np.ndarray
    b_scale: float
    a_pad: np.ndarray
    a_scale: float
    c: np.ndarray

    def changed_rows(self, a_pad: np.ndarray, a_scale: float) -> np.ndarray:
        """Logical rows of ``a_pad`` whose bytes differ from the clean
        pass's (so NaN payloads and signed zeros count); every logical
        row when the activation scale moved."""
        m = self.executor.problem.m
        if a_scale != self.a_scale:
            return np.arange(m)
        bits = np.dtype(f"u{a_pad.itemsize}")
        diff = a_pad[:m].view(bits) != self.a_pad[:m].view(bits)
        return np.flatnonzero(diff.any(axis=1))

    def output_rows(self, a_pad: np.ndarray, a_scale: float, rows: np.ndarray) -> np.ndarray:
        """FP16 output of the given logical rows of ``a_pad``."""
        executor = self.executor
        acc = executor.multiply(a_pad[rows], self.b_acc)
        return executor.epilogue(executor.crop(acc), a_scale * self.b_scale)

    def forward(self, a_pad: np.ndarray, a_scale: float) -> np.ndarray:
        """The layer's FP16 output: the traced one with changed rows
        recomputed, or the traced one itself when none changed."""
        rows = self.changed_rows(a_pad, a_scale)
        if not rows.size:
            return self.c
        c = self.c.copy()
        c[rows] = self.output_rows(a_pad, a_scale, rows)
        return c


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
        in-process; ``N > 1`` shards each run's trials across worker
        processes forked from this campaign, which inherit its prepared
        state, clean baselines and downstream replay state
        (:mod:`repro.faults.parallel`), record-for-record identical to
        the in-process result for a fixed seed.  The workers fork on
        the first sharded run and serve every later one that needs no
        more workers; :meth:`close`, a ``with`` block, or the
        campaign's collection stops them.  Each trial replays the
        downstream layers, so a few dozen trials already amortize the
        millisecond or two a warm pool adds to a run.
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
        # The struck layer's accumulator→output lowering (FP16 downcast
        # on the float pipeline, dequantize on INT8) is its prepared
        # epilogue, so replayed site values match the scheme's own
        # outputs bit-for-bit.
        self._epilogue = self._prepared.epilogue
        self._clean_c16 = self._step.outcome.c  # struck layer's clean FP16
        self._clean_output = trace.output
        self._clean_top1 = self._top1(trace.output)

        # Downstream replay state: the ops after the struck layer, each
        # linear one paired with its cached entry's clean state and its
        # traced output — per-trial work is pad_a, a row diff, and
        # multiply + crop + epilogue over the changed rows only.
        idx = self._step.op_index
        self._struck_op = engine.model.ops[idx]
        self._downstream: list[tuple[object, _DownstreamGemm | None]] = []
        for op in engine.model.ops[idx + 1:]:
            if not op.is_linear:
                self._downstream.append((op, None))
                continue
            st = trace.step(op.name)
            prepared = engine.cache.get(
                engine.scheme_for(op.name), st.a, st.b, tile=st.tile
            )
            traced = st.outcome.c.view()
            traced.flags.writeable = False
            gemm = _DownstreamGemm(
                executor=prepared.executor,
                b_acc=prepared.b_pad.astype(prepared.c_clean.dtype),
                b_scale=prepared.b_scale,
                a_pad=prepared.a_pad,
                a_scale=prepared.a_scale,
                c=traced,
            )
            self._downstream.append((op, gemm))

        if verify_recovery:
            self._check_row_replay()
            replayed = np.ascontiguousarray(self._replay(self._clean_c16))
            clean_out = np.ascontiguousarray(self._clean_output)
            if replayed.tobytes() != clean_out.tobytes():
                raise FaultInjectionError(
                    f"replaying the clean output of layer {layer!r} "
                    f"does not reproduce the clean model output "
                    f"bit-exactly"
                )

    # ------------------------------------------------------------------
    #: The settings a caller may change between runs: every sharded run
    #: ships them to the workers forked from this campaign.
    _SHARD_SETTINGS = ("recovery", "output_rtol", "output_atol")

    def _before_fork(self) -> None:
        """Build the struck layer's lazy clean checks once, before the
        shard workers fork."""
        self._gemm._before_fork()

    # ------------------------------------------------------------------
    @property
    def downstream_ops(self) -> list[str]:
        """Names of the ops corruption propagates through, in order."""
        return [type(op).__name__ if gemm is None else op.name for op, gemm in self._downstream]

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

        Each downstream linear layer re-pads its activations on the
        cached entry's immutable executor and recomputes only the
        logical rows whose padded bytes differ from the clean pass's
        (all of them when an INT8 activation scale moved): the raw
        tiled GEMM of those rows against the widened weights, then the
        protected path's epilogue (crop, lower to FP16 by the
        activation's scale times the entry's weight scale), written
        into a copy of the layer's traced output.  A layer with no
        changed row passes its read-only traced output straight on.
        No checksum work runs, which is sound because a consistent GEMM
        over corrupted inputs is exactly what the protected pass
        computes and cannot flag.  Writes nothing and reads no mutable
        state, so the result is a pure function of ``c16``'s bytes.
        """
        activation = self._struck_op.reshape_output(c16, self._step.dims)
        for op, gemm in self._downstream:
            if gemm is None:
                activation = op.forward(activation)
                continue
            a, _, dims = op.lower(activation)
            a_pad, a_scale = gemm.executor.pad_a(a)
            activation = op.reshape_output(gemm.forward(a_pad, a_scale), dims)
        return activation

    def _check_row_replay(self) -> None:
        """Check, on this host, that recomputing some rows of a
        downstream GEMM reproduces its traced output bit-exactly.

        Row ``i`` of a product reads only row ``i`` of ``A``, but
        whether its accumulated bits are independent of the rows
        sharing the matmul call is the host's matmul's business.  Every
        downstream layer is recomputed over all its logical rows, and
        its last row alone; both must byte-equal the traced output.
        """
        for op, gemm in self._downstream:
            if gemm is None:
                continue
            m = gemm.executor.problem.m
            for rows in (np.arange(m), np.array([m - 1])):
                out = gemm.output_rows(gemm.a_pad, gemm.a_scale, rows)
                if out.tobytes() != gemm.c[rows].tobytes():
                    raise FaultInjectionError(
                        f"recomputing {len(rows)} of {m} rows of "
                        f"downstream layer {op.name!r} does not reproduce "
                        f"its traced output bit-exactly; replaying only "
                        f"changed rows is unsound on this host"
                    )

    def _classify_output(
        self, final: np.ndarray, clean: np.ndarray, tol: np.ndarray
    ) -> tuple[bool, bool, float]:
        """``(corrupted, top1_flip, divergence)`` of one replayed output,
        against the run's float64 clean output and per-element
        tolerance (:meth:`_run_records` computes both once)."""
        out = final.astype(np.float64)
        with np.errstate(invalid="ignore"):
            diff = np.abs(out - clean)
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
        this run: with ``N > 1`` the trials shard across worker
        processes forked from the campaign
        (:mod:`repro.faults.parallel`).  Per-trial records are
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
        # The clean side of every output comparison, once per run: the
        # tolerances are run settings, shipped to shard workers with
        # each run.
        clean = self._clean_output.astype(np.float64)
        with np.errstate(invalid="ignore"):
            tol = self.output_atol + self.output_rtol * np.abs(clean)
        records: list[PropagationRecord] = []
        batch_size = self._gemm.batch_size
        for start in range(0, len(batch), batch_size):
            stop = start + batch_size
            records.extend(self._run_chunk(batch[start:stop], trials[start:stop], clean, tol))
        return records

    def _run_chunk(
        self,
        chunk: SpecArrays,
        trials: Sequence[tuple[FaultSpec, ...]],
        clean: np.ndarray,
        tol: np.ndarray,
    ) -> list[PropagationRecord]:
        """Inject one trial chunk, replay unmasked trials, classify."""
        prepared = self._prepared
        sites = faulted_site_values(prepared.c_clean, chunk)
        outcomes = prepared.inject_batch(
            trials, detection=self._gemm.detection, sites=sites,
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
                    self._replay(c16), clean, tol
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
                    specs, detection=self._gemm.detection
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

"""Fault-injection campaigns measuring detection coverage.

A campaign runs a scheme's protected GEMM many times, each trial
injecting one *fault set* — a single fault in the paper's §2.3 model,
or ``r`` simultaneous faults when exercising the §2.4 multi-checksum
extension — and tallies detections.  Trials whose corruption is
numerically negligible (below the detection tolerance *and* below any
sensible significance threshold) are tracked separately: ABFT's
guarantee is about *significant* faults, and FP bit flips in low
mantissa bits can be smaller than legitimate rounding noise.
Checksum-path faults corrupt the redundant computation, not the
output; per the fault model they can only raise *benign false alarms*
and are never counted as significant corruption.

The campaign rides the prepared-execution engine: the operands are
prepared **once** at construction (padding, tile selection, the clean
GEMM, operand checksums), and trials execute in chunked
:meth:`~repro.abft.base.PreparedExecution.inject_batch` calls — so N
trials run the clean padded GEMM and the operand-side reductions
exactly once instead of N+1 times, and the output-side re-reductions
and verdicts all happen in batch-wide NumPy calls.  Passing a shared
:class:`~repro.abft.base.PreparedCache` amortizes one step further:
parameter sweeps (several campaigns over one problem, varying
significance factors, detection constants, or per-trial fault counts)
reuse a single prepared state, so the whole sweep runs the clean GEMM
exactly once.  Injection never materializes an accumulator (DESIGN.md
§1.3): only the checks each fault struck are recomputed, and trial
records are classified from the fault sites' final values, so the
whole record pipeline — delta gather, significance classification,
verdict extraction — is vectorized end to end and scales with the
*faults per trial*, not the output.  A campaign's trials take one
form below the public API, a :class:`SpecArrays` batch: drawn straight
into columns, or converted once from a caller's spec tuples, then
chunked, sharded and valued from the columns, with verdicts coming
back as columns too — no per-trial object is built until a caller
reads ``result.trials``.  Trials run in chunks of
:attr:`FaultCampaign.batch_size` (default
:attr:`FaultCampaign.BATCH_SIZE`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid the faults <-> abft import cycle at runtime
    from ..abft.base import PreparedCache, PreparedExecution, Scheme
from ..errors import FaultInjectionError
from ..gemm.tiles import TileConfig
from .injector import FaultSites, faulted_site_values
from .model import KINDS, FaultKind, FaultSpec, SpecArrays
from .options import CampaignOptions, resolve_option
from .parallel import ShardPoolOwner

#: One campaign trial's fault set, or a bare spec (normalized to a
#: 1-tuple) — what ``run``/``run_batch`` accept per trial.
TrialFaults = "FaultSpec | Sequence[FaultSpec]"


@dataclass(frozen=True)
class TrialRecord:
    """One campaign trial: the fault set, its magnitude, and the verdict.

    Attributes
    ----------
    faults:
        Every fault injected in this trial, in application order.
    delta:
        The largest-magnitude per-site output corruption (signed; the
        site whose ``|new - clean|`` is greatest, non-finite ranking
        above everything).  NaN when no original-path fault struck the
        output (checksum-path-only trials).
    detected:
        Whether the scheme's checks flagged the trial.
    significant:
        Whether any struck output element moved by more than the
        campaign's significance threshold.  Always False for
        checksum-path-only trials: they corrupt the redundant path,
        not the output.
    benign_alarm:
        The trial raised an alarm attributable to checksum-path
        corruption alone: it was detected, every injected fault hit
        the checksum path (so no output corruption exists the alarm
        could stem from), and accordingly nothing was significant — a
        false positive by construction of the fault model, tracked
        separately from coverage.  Mixed trials never carry the flag:
        with both paths struck, attribution is ambiguous.
    """

    faults: tuple[FaultSpec, ...]
    delta: float
    detected: bool
    significant: bool
    benign_alarm: bool = False

    @property
    def n_faults(self) -> int:
        """Number of faults injected in this trial."""
        return len(self.faults)

    @property
    def spec(self) -> FaultSpec:
        """The injected fault of a single-fault trial (compat accessor)."""
        if len(self.faults) != 1:
            raise FaultInjectionError(
                f"trial injected {len(self.faults)} faults; use .faults"
            )
        return self.faults[0]


class CampaignResult:
    """Aggregated campaign statistics, held as columns.

    A result keeps every trial's faults — the drawn :class:`SpecArrays`
    batch of a random run, the caller's fault tuples of an explicit
    :meth:`FaultCampaign.run` — and four per-trial columns: ``deltas``
    (float64), ``detected``, ``significant`` and ``benign`` (bool), the
    fields of :class:`TrialRecord`.  Every aggregate reads the columns;
    :attr:`trials` builds the record list once, on first access.

    ``CampaignResult(scheme, records)`` wraps already-built records.
    """

    def __init__(self, scheme: str, trials: Iterable[TrialRecord] = ()) -> None:
        records = list(trials)
        self.scheme = scheme
        self._faults: Sequence[Sequence[FaultSpec]] = [r.faults for r in records]
        self.deltas = np.array([r.delta for r in records], dtype=np.float64)
        self.detected = np.array([r.detected for r in records], dtype=bool)
        self.significant = np.array([r.significant for r in records], dtype=bool)
        self.benign = np.array([r.benign_alarm for r in records], dtype=bool)
        self._trials: list[TrialRecord] | None = records

    @classmethod
    def _from_columns(
        cls,
        scheme: str,
        faults: Sequence[Sequence[FaultSpec]],
        deltas: np.ndarray,
        detected: np.ndarray,
        significant: np.ndarray,
        benign: np.ndarray,
    ) -> "CampaignResult":
        """A result over per-trial faults and their verdict columns."""
        self = cls.__new__(cls)
        self.scheme = scheme
        self._faults = faults
        self.deltas = deltas
        self.detected = detected
        self.significant = significant
        self.benign = benign
        self._trials = None
        return self

    def __repr__(self) -> str:
        return f"CampaignResult(scheme={self.scheme!r}, n_trials={self.n_trials})"

    @property
    def trials(self) -> list[TrialRecord]:
        """One :class:`TrialRecord` per trial, built once on first access."""
        if self._trials is None:
            faults = self._faults
            if isinstance(faults, SpecArrays):
                faults = faults.tolist()
            self._trials = [
                TrialRecord(
                    faults=tuple(f), delta=d, detected=det,
                    significant=sig, benign_alarm=ben,
                )
                for f, d, det, sig, ben in zip(
                    faults,
                    self.deltas.tolist(),
                    self.detected.tolist(),
                    self.significant.tolist(),
                    self.benign.tolist(),
                )
            ]
        return self._trials

    def _subset(self, indices: np.ndarray) -> "CampaignResult":
        if len(indices) == self.n_trials:
            faults = self._faults
        else:
            faults = [self._faults[i] for i in indices]
        sub = CampaignResult._from_columns(
            self.scheme, faults, self.deltas[indices], self.detected[indices],
            self.significant[indices], self.benign[indices],
        )
        if self._trials is not None:
            sub._trials = [self._trials[i] for i in indices]
        return sub

    @property
    def n_trials(self) -> int:
        return len(self.deltas)

    @property
    def n_detected(self) -> int:
        return int(np.count_nonzero(self.detected))

    @property
    def n_significant(self) -> int:
        return int(np.count_nonzero(self.significant))

    @property
    def n_benign_alarms(self) -> int:
        """Trials whose alarm is attributable to checksum-path faults."""
        return int(np.count_nonzero(self.benign))

    @property
    def coverage(self) -> float:
        """Detection rate over *significant* faults (the ABFT guarantee)."""
        significant = self.n_significant
        if not significant:
            return 1.0
        return int(np.count_nonzero(self.detected & self.significant)) / significant

    @property
    def false_negatives(self) -> list[TrialRecord]:
        """Significant faults that escaped detection."""
        missed = np.flatnonzero(self.significant & ~self.detected)
        if not len(missed):
            return []
        return self._subset(missed).trials

    def by_fault_count(self) -> dict[int, "CampaignResult"]:
        """Per-simultaneous-fault-count sub-results, ascending.

        Groups trials by :attr:`TrialRecord.n_faults` so coverage (and
        every other statistic) can be reported *as a function of the
        number of simultaneous faults* — the axis of the paper's §2.4
        multi-fault detection claim.
        """
        faults = self._faults
        if isinstance(faults, SpecArrays):
            counts = np.diff(faults.ptr)
        else:
            counts = np.fromiter(
                (len(f) for f in faults), dtype=np.intp, count=self.n_trials
            )
        return {
            int(k): self._subset(np.flatnonzero(counts == k))
            for k in np.unique(counts)
        }

    def coverage_by_fault_count(self) -> dict[int, float]:
        """Detection coverage keyed by per-trial fault count, ascending."""
        return {k: r.coverage for k, r in self.by_fault_count().items()}


class FaultCampaign(ShardPoolOwner):
    """Run repeated fault-injection trials against one scheme.

    Each trial injects one fault set: a single fault by default (the
    paper's §2.3 model), or several simultaneous faults via the
    ``faults_per_trial`` arguments of :meth:`run`/:meth:`run_batch`/
    :meth:`draw_faults` (the §2.4 extension — the struck-check engine
    handles arbitrary per-trial fault sets).

    Parameters
    ----------
    scheme:
        The protected-execution scheme under test.
    a, b:
        Operand matrices (logical shapes).
    tile:
        Optional tile configuration override.
    significance_factor:
        A fault is *significant* when its absolute delta exceeds
        ``significance_factor`` times the detection tolerance of the
        coarsest check (the output summation).  Sub-significant flips
        (e.g. LSB mantissa flips) are below the rounding-noise floor by
        construction and no checksum scheme can — or needs to — see them.
    batch_size:
        Trials per chunked ``inject_batch`` call (default
        :attr:`BATCH_SIZE`).  A chunk's transient memory scales with
        its faults, not with the output, so one default serves every
        scheme; records are identical at any chunk size.
    cache:
        Optional shared :class:`~repro.abft.base.PreparedCache`.  When
        given, the campaign fetches its prepared state from the cache
        instead of preparing privately, so a parameter sweep of many
        campaigns over one ``(scheme, a, b, tile)`` runs the clean GEMM
        and operand reductions exactly once (bit-identical results
        either way — the state is fault-invariant).
    workers:
        Default worker-process count for :meth:`run`/:meth:`run_batch`
        (both also take a per-call override).  ``None`` or ``1`` runs
        in-process; ``N > 1`` shards each run's trials across worker
        processes forked from this campaign, which inherit its prepared
        state (:mod:`repro.faults.parallel`), record-for-record
        identical to the in-process result for a fixed seed.  The
        workers fork on the first sharded run and serve every later
        one that needs no more workers; :meth:`close`, a ``with``
        block, or the campaign's collection stops them.  A warm pool
        adds a millisecond or two to a run, so two workers pay from a
        few thousand trials of a mid-size GEMM (measured in DESIGN.md
        §4).
    options:
        A :class:`~repro.faults.CampaignOptions` carrying any of the
        knobs above; ``seed`` / ``significance_factor`` / ``batch_size``
        may be given either here or as their keyword, not both.  ``detection`` / ``cache`` / ``workers`` are options-only
        (their keyword aliases were removed after one deprecated
        release).
    """

    #: Default trials per ``inject_batch`` chunk.
    BATCH_SIZE = 2048

    def __init__(
        self,
        scheme: "Scheme",
        a: np.ndarray,
        b: np.ndarray,
        *,
        tile: TileConfig | None = None,
        significance_factor: float | None = None,
        seed: int | None = None,
        batch_size: int | None = None,
        options: CampaignOptions | None = None,
    ) -> None:
        # detection / cache / workers travel only on the options object.
        detection = options.detection if options is not None else None
        cache = options.cache if options is not None else None
        workers = options.workers if options is not None else None
        significance_factor = resolve_option(
            options, "FaultCampaign", "significance_factor",
            significance_factor,
        )
        seed = resolve_option(options, "FaultCampaign", "seed", seed)
        batch_size = resolve_option(
            options, "FaultCampaign", "batch_size", batch_size
        )
        if detection is None:
            # Scheme-matched default: the INT8 pipeline's exact-integer
            # checks need the half-ULP tolerance, not FP32 roundoff.
            detection = scheme.default_detection
        if significance_factor is None:
            significance_factor = 4.0
        if seed is None:
            seed = 0
        if not scheme.protects:
            raise FaultInjectionError(
                f"scheme {scheme.name!r} performs no checks; a campaign "
                f"against it cannot measure coverage"
            )
        if batch_size is not None and batch_size <= 0:
            raise FaultInjectionError(
                f"batch_size must be positive, got {batch_size}"
            )
        if workers is not None and workers < 1:
            raise FaultInjectionError(
                f"workers must be >= 1, got {workers}"
            )
        self.workers = workers
        self.scheme = scheme
        self.a = np.asarray(a, dtype=np.float16)
        self.b = np.asarray(b, dtype=np.float16)
        self.tile = tile
        self.detection = detection
        self.significance_factor = significance_factor
        self.rng = np.random.default_rng(seed)

        # All fault-invariant work happens exactly once — here, or once
        # per sweep inside a shared cache; trials only inject into
        # copies of the prepared accumulator.
        if cache is not None:
            self._prepared = cache.get(scheme, self.a, self.b, tile=tile)
        else:
            self._prepared = scheme.prepare(self.a, self.b, tile=tile)
        self.batch_size = batch_size if batch_size is not None else self.BATCH_SIZE

        # Baseline (fault-free) run: establishes the tolerance scale and
        # sanity-checks that the clean execution raises no alarm.
        baseline = self._prepared.inject(detection=detection)
        if baseline.detected:
            raise FaultInjectionError(
                f"scheme {scheme.name!r} flags a fault on clean data; "
                f"detection tolerances are miscalibrated for this problem"
            )
        self._baseline = baseline
        self._tolerance_scale = max(
            baseline.verdict.tolerance if baseline.verdict else 0.0,
            detection.atol_floor,
        )

    #: The settings a caller may change between runs: every sharded run
    #: ships them to the workers forked from this campaign.
    _SHARD_SETTINGS = (
        "detection", "significance_factor", "_tolerance_scale", "batch_size"
    )

    def _before_fork(self) -> None:
        """Build the lazy clean check arrays once, before the shard
        workers fork, so none of them rebuilds them."""
        self._prepared.clean_reductions
        self._prepared.clean_comparison(self.detection)

    @property
    def prepared(self) -> "PreparedExecution":
        """The campaign's shared prepared state (fault-invariant half).

        Exposed for consumers that layer more work on the same state —
        :class:`~repro.faults.PropagationCampaign` injects through it
        and replays downstream from its clean accumulator.  Treat as
        read-only; the state is shared across every trial (and, with a
        cache, across campaigns).
        """
        return self._prepared

    @property
    def tolerance_scale(self) -> float:
        """The campaign's numerical sensitivity floor.

        The largest detection tolerance of the scheme's clean baseline
        verdict (floored at the detection constants' absolute floor) —
        the scale the significance threshold multiplies.  Corruptions
        below ``significance_factor * tolerance_scale`` are classified
        insignificant: they are within the rounding noise the tolerance
        model already budgets for.
        """
        return self._tolerance_scale

    def _resolve_workers(self, workers: int | None, n_trials: int) -> int:
        """Effective worker count for a run of ``n_trials`` trials.

        A per-call ``workers`` overrides the campaign default; ``None``
        everywhere means in-process.  The count is clamped to the trial
        count — shards are contiguous non-empty trial ranges, so extra
        workers would have nothing to do.
        """
        if workers is None:
            workers = self.workers
        if workers is None:
            return 1
        if workers < 1:
            raise FaultInjectionError(f"workers must be >= 1, got {workers}")
        return max(1, min(int(workers), n_trials))

    @property
    def fault_domain(self) -> tuple[int, int]:
        """Padded accumulator shape every random fault site is drawn from.

        The prepared clean accumulator, whose grid is what injection
        indexes into.
        """
        rows, cols = self._prepared.c_clean.shape
        return int(rows), int(cols)

    def draw_faults(
        self, n: int, *, faults_per_trial: int = 1
    ) -> list[FaultSpec] | list[tuple[FaultSpec, ...]]:
        """Vectorized batch of ``n`` random original-path fault trials.

        All random draws happen up front in whole-batch RNG calls
        (:meth:`_draw_spec_arrays`, the stream :meth:`run` and
        :meth:`run_batch` draw from); only the spec assembly is a
        Python pass.  Deterministic for a given campaign seed.

        With the default ``faults_per_trial=1`` the return value is a
        flat spec list (one fault per trial — the historical API).
        With ``faults_per_trial=r > 1`` it is a list of ``r``-tuples,
        each a trial's simultaneous fault set; sites are drawn i.i.d.
        over the fault domain, so a trial occasionally strikes the same
        element twice (then holding fewer than ``r`` distinct faulty
        values, still within the §2.4 ``<= r`` guarantee).
        """
        _check_draw(n, faults_per_trial)
        trials = self._draw_spec_arrays(n, faults_per_trial).tolist()
        if faults_per_trial == 1:
            return [spec for (spec,) in trials]
        return trials

    def _draw_spec_arrays(self, n_trials: int, faults_per_trial: int = 1) -> SpecArrays:
        """``n_trials`` random trials of ``faults_per_trial`` original-path faults.

        All randomness for a batch happens here, in whole-batch RNG
        calls on the campaign's single seeded stream, and the fields a
        kind ignores are normalized (FP16 bits modulo 16, ``bit=20`` on
        ``ADD`` entries, ``value=0.0`` on flips), so entry ``i`` is
        exactly the :class:`FaultSpec` it stands for.  Everything after
        the draw is a pure function of these columns; sharded runs draw
        once in the parent and ship column slices, consuming the RNG
        stream identically to an in-process run.
        """
        total = n_trials * faults_per_trial
        rows_total, cols_total = self.fault_domain
        rows = self.rng.integers(rows_total, size=total)
        cols = self.rng.integers(cols_total, size=total)
        # Uniform over the first three kinds (FP32 flip, FP16 flip,
        # ADD): the same RNG draw as a choice over the kinds themselves.
        codes = self.rng.choice(3, size=total).astype(np.uint8)
        # ADD models a corrupted MMA partial product: magnitude
        # comparable to a legitimate partial sum, random sign.
        scale = float(np.abs(self._prepared.c_clean).mean() + 1.0)
        values = self.rng.normal(0.0, scale, size=total)
        bits = self.rng.integers(32, size=total)
        fp16 = codes == KINDS.index(FaultKind.BITFLIP_FP16)
        add = codes == KINDS.index(FaultKind.ADD)
        return SpecArrays(
            ptr=np.arange(n_trials + 1, dtype=np.intp) * faults_per_trial,
            rows=rows,
            cols=cols,
            kind_codes=codes,
            # Drawn bits are below 32, so masking is the modulo.
            bits=np.where(add, 20, bits & np.where(fp16, 15, 31)),
            values=np.where(add, values, 0.0),
            paths=np.zeros(total, dtype=np.uint8),
        )

    @staticmethod
    def _normalize_trials(
        specs: Iterable["TrialFaults"],
    ) -> list[tuple[FaultSpec, ...]]:
        """Per-trial fault tuples from bare specs and/or spec sequences."""
        trials: list[tuple[FaultSpec, ...]] = []
        for entry in specs:
            if isinstance(entry, FaultSpec):
                trials.append((entry,))
            else:
                trials.append(tuple(entry))
        return trials

    def _trial_batch(
        self,
        n_trials: int,
        specs: Sequence["TrialFaults"] | None,
        faults_per_trial: int | None,
    ) -> tuple[Sequence[tuple[FaultSpec, ...]], SpecArrays]:
        """``(faults, batch)`` of one run under :meth:`run`'s contract.

        ``batch`` is what the engine runs; ``faults`` is what records
        carry — the caller's own fault tuples for explicit ``specs``
        (converted to the batch once), the drawn batch itself otherwise.
        """
        if n_trials < 0:
            raise FaultInjectionError(f"n_trials must be >= 0, got {n_trials}")
        if specs is None:
            per_trial = 1 if faults_per_trial is None else faults_per_trial
            _check_draw(n_trials, per_trial)
            batch = self._draw_spec_arrays(n_trials, per_trial)
            return batch, batch
        if faults_per_trial is not None:
            raise FaultInjectionError(
                "faults_per_trial only applies to randomly drawn "
                "trials; explicit specs already fix each trial's faults"
            )
        if n_trials not in (0, len(specs)):
            raise FaultInjectionError(
                f"n_trials={n_trials} disagrees with {len(specs)} explicit "
                f"specs; pass 0 or len(specs)"
            )
        trials = self._normalize_trials(specs)
        return trials, SpecArrays.from_trials(trials)

    def run_trial(self, faults: "TrialFaults") -> TrialRecord:
        """Execute one trial with the given fault (or fault set) injected."""
        (trial,) = self._normalize_trials([faults])
        deltas, detected, significant, benign = self._run_columns(
            SpecArrays.from_trials([trial])
        )
        return TrialRecord(
            faults=trial,
            delta=float(deltas[0]),
            detected=bool(detected[0]),
            significant=bool(significant[0]),
            benign_alarm=bool(benign[0]),
        )

    def _classify_batch(
        self, sites: FaultSites, detected: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Verdict columns ``(deltas, detected, significant, benign)``.

        Deltas come from the fault sites' final values
        (:func:`~repro.faults.injector.faulted_site_values` — the same
        valuation injection uses), so the gather is a handful of
        fancy-indexed NumPy calls and no accumulator is materialized.
        A trial is *significant* when any of its struck sites moved
        past the significance threshold (or into non-finite territory);
        its reported ``delta`` is the largest-magnitude site delta
        (first site wins ties).  Trials with no original-path site —
        checksum-path-only fault sets — are never significant: they
        corrupt the redundant computation, so a detection there is a
        *benign alarm*, not coverage of a significant fault.
        ``detected`` is the outcome batch's verdict column.
        """
        n = sites.n_trials
        clean = self._prepared.c_clean
        deltas = np.full(n, np.nan)
        significant = np.zeros(n, dtype=bool)
        if len(sites):
            site_deltas = sites.deltas(clean)
            keys = np.where(
                np.isfinite(site_deltas), np.abs(site_deltas), np.inf
            )
            # Representative site per trial: descending |delta| within
            # each trial (stable lexsort keeps the first site on ties),
            # then the head of every trial's span.
            order = np.lexsort((-keys, sites.trials))
            sorted_trials = sites.trials[order]
            first = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_trials)) + 1)
            )
            rep = order[first]
            touched = sorted_trials[first]
            deltas[touched] = site_deltas[rep]
            threshold = self.significance_factor * self._tolerance_scale
            significant[touched] = keys[rep] > threshold
        detected = np.asarray(detected, dtype=bool)
        # Attribution must be unambiguous: only trials whose every
        # fault hit the checksum path can blame the alarm on it — those
        # carrying a checksum-path fault but no original-path site
        # (such trials have no output corruption, hence are never
        # significant either).
        checksum_only = np.diff(sites.checksum.ptr) > 0
        checksum_only[sites.trials] = False
        benign = detected & checksum_only
        return deltas, detected, significant, benign

    def _run_columns(
        self, batch: SpecArrays
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Execute a batch through chunked ``inject_batch`` calls.

        Returns the ``(deltas, detected, significant, benign)`` columns
        of :meth:`_classify_batch`, concatenated across chunks.  One
        site valuation per chunk serves both the injection and the
        record classification, and neither reads a :class:`FaultSpec`.
        """
        columns: list[tuple[np.ndarray, ...]] = []
        for start in range(0, len(batch), self.batch_size):
            chunk = batch[start:start + self.batch_size]
            sites = faulted_site_values(self._prepared.c_clean, chunk)
            outcomes = self._prepared.inject_batch(
                chunk, detection=self.detection, sites=sites
            )
            columns.append(self._classify_batch(sites, outcomes.verdicts.detected))
        if not columns:
            return (
                np.empty(0),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=bool),
            )
        if len(columns) == 1:
            return columns[0]
        return tuple(
            np.concatenate([chunk[k] for chunk in columns]) for k in range(4)
        )

    def run(
        self,
        n_trials: int,
        specs: Sequence["TrialFaults"] | None = None,
        *,
        faults_per_trial: int | None = None,
        workers: int | None = None,
    ) -> CampaignResult:
        """Run ``n_trials`` random trials, or the provided fault sets.

        Contract: when ``specs`` is given it fully determines the
        trials — each entry a bare :class:`FaultSpec` (a single-fault
        trial) or a sequence of specs (one trial's simultaneous fault
        set) — and ``n_trials`` must agree: either ``0`` ("however
        many specs there are") or exactly ``len(specs)``;
        ``faults_per_trial`` must then be left unset.  Without
        ``specs``, each trial draws ``faults_per_trial`` (default 1)
        random original-path faults, exactly as :meth:`run_batch` does.
        Any other combination raises :class:`FaultInjectionError`
        rather than silently ignoring an argument.

        All trials execute through the batched injection engine
        (bit-identical to per-trial :meth:`run_trial` calls); explicit
        specs are converted to one :class:`SpecArrays` batch, and their
        records carry the caller's spec objects.  ``workers`` overrides
        the campaign's default worker count for this run (see the
        constructor); any sharded execution returns the exact record
        sequence the in-process path produces.

        Example
        -------
        >>> import numpy as np
        >>> from repro.abft import GlobalABFT
        >>> from repro.faults import FaultCampaign
        >>> rng = np.random.default_rng(0)
        >>> a = rng.standard_normal((48, 32)).astype(np.float16)
        >>> b = rng.standard_normal((32, 40)).astype(np.float16)
        >>> campaign = FaultCampaign(GlobalABFT(), a, b, seed=7)
        >>> result = campaign.run(64)
        >>> result.n_trials
        64
        >>> 0.0 <= result.coverage <= 1.0
        True
        """
        faults, batch = self._trial_batch(n_trials, specs, faults_per_trial)
        n_workers = self._resolve_workers(workers, len(batch))
        if n_workers > 1:
            from .parallel import run_campaign_sharded

            return run_campaign_sharded(
                self, arrays=batch, faults=faults, workers=n_workers
            )
        return CampaignResult._from_columns(
            self.scheme.name, faults, *self._run_columns(batch)
        )

    def run_batch(
        self,
        n_trials: int,
        *,
        faults_per_trial: int = 1,
        workers: int | None = None,
    ) -> CampaignResult:
        """Run ``n_trials`` random trials with all specs drawn up front.

        :meth:`run` without explicit specs: the randomness is drawn in
        vectorized batch RNG calls before any trial executes, and the
        batch then runs from the drawn columns — site valuation,
        injection and record classification read them directly, and
        the result holds them with the verdict columns, building
        :class:`FaultSpec` and :class:`TrialRecord` objects only when
        ``result.trials`` is read.  Record-for-record identical to
        ``run(n_trials, specs=draw_faults(...))`` on a campaign with the
        same seed.  ``faults_per_trial`` sets every trial's
        simultaneous fault count (see :meth:`draw_faults`).

        With ``workers=N > 1`` (or a campaign-level default) the drawn
        trial stream is sharded across worker processes forked from
        this campaign; the parent draws all randomness up front exactly
        as in-process, so for a fixed seed the merged result is
        record-for-record identical at any worker count.  A worker
        failure raises :class:`~repro.errors.CampaignError`.

        Example
        -------
        >>> import numpy as np
        >>> from repro.abft import GlobalABFT
        >>> from repro.faults import FaultCampaign
        >>> rng = np.random.default_rng(0)
        >>> a = rng.standard_normal((48, 32)).astype(np.float16)
        >>> b = rng.standard_normal((32, 40)).astype(np.float16)
        >>> campaign = FaultCampaign(GlobalABFT(), a, b, seed=7)
        >>> result = campaign.run_batch(128, faults_per_trial=2)
        >>> result.n_trials, result.trials[0].n_faults
        (128, 2)
        >>> sorted(result.coverage_by_fault_count()) == [2]
        True
        """
        _check_draw(n_trials, faults_per_trial)
        return self.run(n_trials, faults_per_trial=faults_per_trial, workers=workers)


def _check_draw(n: int, faults_per_trial: int) -> None:
    """Reject a draw of ``n`` trials x ``faults_per_trial`` faults."""
    if n < 0:
        raise FaultInjectionError(f"cannot draw {n} faults")
    if faults_per_trial < 1:
        raise FaultInjectionError(
            f"faults_per_trial must be >= 1, got {faults_per_trial}"
        )

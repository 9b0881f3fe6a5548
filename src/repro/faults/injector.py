"""Application of fault specs to numeric accumulators.

Two granularities: :func:`apply_fault_to_accumulator` corrupts one
element of one accumulator (the scalar reference semantics, shared
with checksum-side elements through :func:`corrupted_element`), and
:func:`faulted_site_values` computes the final post-fault value of
every struck output element *without* materializing any per-trial
accumulator at all — the fault→coordinate mapping that feeds the
struck-check re-reduction of
:meth:`repro.abft.base.PreparedExecution.inject_batch`.

The batch paths share one corruption core (:func:`corrupted_values_batch`,
or :func:`corrupted_values_columns` for drawn spec columns, which
applies the same operations without spec objects) and are
bit-identical to the scalar reference per element: additive faults
accumulate in float64 before rounding back to float32, and bit flips
operate on the same FP32/FP16 views the scalar helpers use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import FaultInjectionError
from .bits import flip_fp16_bit, flip_fp32_bit
from .model import SPEC_KINDS, FaultKind, FaultPath, FaultSpec, SpecArrays


def corrupted_value(original: float, spec: FaultSpec) -> float:
    """The value the target element holds after the fault strikes."""
    if spec.kind is FaultKind.BITFLIP_FP32:
        return flip_fp32_bit(original, spec.bit)
    if spec.kind is FaultKind.BITFLIP_FP16:
        return flip_fp16_bit(original, spec.bit)
    if spec.kind is FaultKind.ADD:
        return float(original) + spec.value
    if spec.kind is FaultKind.SET:
        return spec.value
    raise FaultInjectionError(f"unhandled fault kind {spec.kind!r}")


_INT32_WRAP = 1 << 32
_INT32_MIN = -(1 << 31)


def _wrap_int32(value: int) -> int:
    """Wrap an arbitrary integer into INT32 two's-complement range."""
    return (value - _INT32_MIN) % _INT32_WRAP + _INT32_MIN


def corrupted_int32_value(original: int, spec: FaultSpec) -> int:
    """INT32-domain reference semantics of one fault on one element.

    Bit flips XOR the requested bit of the 32-bit word (an FP16-domain
    flip strikes the low half-word — same storage-level event, no
    float interpretation); additive and set faults round the spec value
    to the nearest integer and wrap in two's complement like a hardware
    integer datapath would.
    """
    if spec.kind in (FaultKind.BITFLIP_FP32, FaultKind.BITFLIP_FP16):
        return _wrap_int32(_wrap_int32(original) ^ (1 << spec.bit))
    if not np.isfinite(spec.value):
        raise FaultInjectionError(
            f"non-finite fault value {spec.value!r} on an integer accumulator"
        )
    if spec.kind is FaultKind.ADD:
        return _wrap_int32(original + int(np.rint(spec.value)))
    if spec.kind is FaultKind.SET:
        return _wrap_int32(int(np.rint(spec.value)))
    raise FaultInjectionError(f"unhandled fault kind {spec.kind!r}")


def corrupted_element(value: np.generic, spec: FaultSpec) -> np.generic:
    """The value one element holds after ``spec`` strikes it, in its dtype.

    Integer (INT32 accumulator) elements take
    :func:`corrupted_int32_value`; float elements take
    :func:`corrupted_value` rounded back to their own precision.  The
    element semantics every scalar fault application shares, on the
    output and on the checksum side alike.
    """
    if isinstance(value, np.integer):
        return np.int32(corrupted_int32_value(int(value), spec))
    return value.dtype.type(corrupted_value(float(value), spec))


def apply_fault_to_accumulator(c_pad: np.ndarray, spec: FaultSpec) -> float:
    """Corrupt one element of the padded FP32 accumulator in place.

    Returns the additive delta the fault introduced (``new - old``),
    which is what a corrupted MMA partial product contributes to the
    final accumulator under linear accumulation.  A flip of the
    exponent MSB can produce inf/NaN; it is kept — ABFT comparisons
    flag non-finite mismatches.
    """
    rows, cols = c_pad.shape
    if not (0 <= spec.row < rows and 0 <= spec.col < cols):
        raise FaultInjectionError(
            f"fault site ({spec.row}, {spec.col}) outside accumulator "
            f"{rows}x{cols}"
        )
    old = c_pad[spec.row, spec.col]
    new = corrupted_element(old, spec)
    c_pad[spec.row, spec.col] = new
    return float(new) - float(old)


def corrupted_values_batch(
    values: np.ndarray, specs: Sequence[FaultSpec]
) -> np.ndarray:
    """Post-fault values of a flat accumulator vector, one spec per element.

    The vectorized corruption core shared by every batch path: faults
    are grouped by kind and each group is applied in one NumPy
    operation, bit-identical per element to :func:`corrupted_value`
    (additive faults accumulate in float64 before rounding back to
    float32; bit flips round-trip through float64 exactly like the
    scalar helpers, so a flip into the NaN space stores the quieted
    pattern, not the raw signaling bits) on float32 accumulators, and
    to :func:`corrupted_int32_value` on int32 ones.
    """
    count = len(specs)
    if values.shape != (count,):
        raise FaultInjectionError(
            f"{values.shape} corruption values for {count} fault specs"
        )
    return _corrupted(
        values,
        _ALL_KINDS,
        np.fromiter((_ALL_KINDS.index(s.kind) for s in specs), np.uint8, count),
        np.fromiter((s.value for s in specs), np.float64, count),
        np.fromiter((s.bit for s in specs), np.int64, count),
    )


def corrupted_values_columns(values: np.ndarray, specs: SpecArrays) -> np.ndarray:
    """:func:`corrupted_values_batch` over spec columns, no spec objects.

    ``specs`` entry ``i`` strikes ``values[i]``: the same per-kind
    operations :func:`corrupted_values_batch` applies to the specs
    :func:`~repro.faults.campaign.assemble_specs` would build (pinned
    by a hypothesis property), on float32 and int32 accumulators alike.
    """
    if values.shape != (len(specs),):
        raise FaultInjectionError(
            f"{values.shape} corruption values for {len(specs)} fault specs"
        )
    return _corrupted(values, SPEC_KINDS, specs.kind_codes, specs.values, specs.bits)


#: Kind table of :func:`corrupted_values_batch`'s codes (index == code).
_ALL_KINDS = tuple(FaultKind)


def _corrupted(
    values: np.ndarray,
    kinds: Sequence[FaultKind],
    codes: np.ndarray,
    spec_values: np.ndarray,
    bits: np.ndarray,
) -> np.ndarray:
    """Entry ``i`` of ``values`` struck by kind ``kinds[codes[i]]``.

    Float32 accumulators take the float semantics of
    :func:`corrupted_value`; int32 ones those of
    :func:`corrupted_int32_value` — bit flips XOR the 32-bit word (an
    FP16 flip strikes the low half-word), ``ADD``/``SET`` round the
    value to the nearest integer and wrap in two's complement.  Bits
    reduce modulo the kind's width, as drawn bits do.
    """
    integer = np.issubdtype(values.dtype, np.integer)
    out = np.array(values, dtype=np.int32 if integer else np.float32)
    for code, kind in enumerate(kinds):
        sel = np.flatnonzero(codes == code)
        if not len(sel):
            continue
        if kind in (FaultKind.ADD, FaultKind.SET):
            news = np.asarray(spec_values[sel], dtype=np.float64)
            if integer:
                ints = _int32_words(news)
                if kind is FaultKind.ADD:
                    ints = out[sel].astype(np.int64) + ints
                out[sel] = (ints & _WORD).astype(np.uint32).view(np.int32)
            elif kind is FaultKind.ADD:
                out[sel] = (out[sel].astype(np.float64) + news).astype(np.float32)
            else:
                out[sel] = news.astype(np.float32)
            continue
        width = 32 if kind is FaultKind.BITFLIP_FP32 else 16
        shifts = (np.asarray(bits[sel]) % width).astype(np.uint32)
        if integer or kind is FaultKind.BITFLIP_FP32:
            words = out[sel].view(np.uint32) ^ np.left_shift(np.uint32(1), shifts)
            if integer:
                out[sel] = words.view(np.int32)
                continue
            flipped = words.view(np.float32)
        else:
            with np.errstate(over="ignore"):
                halves = out[sel].astype(np.float16)
            masks = np.left_shift(np.uint16(1), shifts.astype(np.uint16))
            flipped = (halves.view(np.uint16) ^ masks).view(np.float16)
        with np.errstate(invalid="ignore"):
            out[sel] = flipped.astype(np.float64).astype(np.float32)
    return out


#: Low 32 bits of an int64: an INT32 word modulo 2**32.
_WORD = np.int64(_INT32_WRAP - 1)


def _int32_words(values: np.ndarray) -> np.ndarray:
    """Spec values rounded to integers, as INT32 words in ``[0, 2**32)``."""
    if not np.all(np.isfinite(values)):
        raise FaultInjectionError("non-finite fault value on an integer accumulator")
    rounded = np.rint(values)
    if np.all(np.abs(rounded) < 2.0**63):
        return rounded.astype(np.int64) & _WORD
    # Beyond int64: wrap through exact Python integers.
    return np.fromiter(
        (_wrap_int32(int(v)) & (_INT32_WRAP - 1) for v in rounded),
        dtype=np.int64,
        count=len(rounded),
    )


@dataclass(frozen=True)
class FaultSites:
    """Every original-path fault site of a trial batch, with final values.

    One entry per **unique** ``(trial, row, col)`` site: ``values[i]``
    is the value the accumulator element would hold after *all* of that
    trial's faults on that site were applied in spec order.  This is
    the struck-check engine's whole view of a batch's output side —
    which output elements changed and what they became — derived
    without touching an ``(N, m, n)`` accumulator.
    """

    trials: np.ndarray  # (S,) intp — trial index per site
    rows: np.ndarray  # (S,) intp — padded accumulator row
    cols: np.ndarray  # (S,) intp — padded accumulator column
    values: np.ndarray  # (S,) accumulator dtype — final post-fault value
    n_trials: int
    #: Ascending trials carrying at least one checksum-path fault — the
    #: only ones whose checksum side differs from the clean one.
    checksum_trials: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.intp)
    )

    def __len__(self) -> int:
        return len(self.trials)

    def deltas(self, c_clean: np.ndarray) -> np.ndarray:
        """Per-site signed corruption deltas against a clean grid: ``(S,)``.

        ``deltas[i] = float64(values[i]) - float64(c_clean[site i])`` —
        what each struck output element moved by after all of its
        trial's faults were applied.  Non-finite entries mark faults
        that flipped an element into inf/NaN.  This is the quantity the
        campaign layer classifies significance from, shared between the
        single-trial and batched record paths.
        """
        return self.values.astype(np.float64) - c_clean[
            self.rows, self.cols
        ].astype(np.float64)


def faulted_site_values(
    c_clean: np.ndarray,
    faults_batch: Sequence[Sequence[FaultSpec]],
) -> FaultSites:
    """Map a trial batch's original-path faults to final site values.

    Step ``j`` applies every trial's ``j``-th original-path fault, and
    each step's corruption touches only the handful of struck clean
    values — so deriving the engine's inputs costs O(faults), not
    O(trials x outputs).  Bit-identical per element to applying each
    trial's faults in spec order to a copy of the accumulator with
    :func:`apply_fault_to_accumulator`.

    Every spec is bounds-checked here, once, against the padded grid —
    checksum-path ones too, since their coordinates select the check
    they corrupt — and an out-of-range site raises
    :class:`~repro.errors.FaultInjectionError`.
    """
    rows_total, cols_total = c_clean.shape
    site_index: dict[tuple[int, int, int], int] = {}
    site_trials: list[int] = []
    site_rows: list[int] = []
    site_cols: list[int] = []
    checksum_trials: list[int] = []
    steps: list[list[tuple[int, FaultSpec]]] = []
    for t, faults in enumerate(faults_batch):
        step = 0
        for spec in faults:
            if spec.row >= rows_total or spec.col >= cols_total:
                raise FaultInjectionError(
                    f"fault site ({spec.row}, {spec.col}) outside "
                    f"accumulator {rows_total}x{cols_total}"
                )
            if spec.path is not FaultPath.ORIGINAL:
                if not checksum_trials or checksum_trials[-1] != t:
                    checksum_trials.append(t)
                continue
            key = (t, spec.row, spec.col)
            idx = site_index.get(key)
            if idx is None:
                idx = len(site_trials)
                site_index[key] = idx
                site_trials.append(t)
                site_rows.append(spec.row)
                site_cols.append(spec.col)
            if step == len(steps):
                steps.append([])
            steps[step].append((idx, spec))
            step += 1

    trials = np.asarray(site_trials, dtype=np.intp)
    rows = np.asarray(site_rows, dtype=np.intp)
    cols = np.asarray(site_cols, dtype=np.intp)
    site_dtype = (
        np.int32 if np.issubdtype(c_clean.dtype, np.integer) else np.float32
    )
    values = c_clean[rows, cols].astype(site_dtype, copy=True)
    for entries in steps:
        sel = np.asarray([idx for idx, _ in entries], dtype=np.intp)
        values[sel] = corrupted_values_batch(
            values[sel], [spec for _, spec in entries]
        )
    return FaultSites(
        trials=trials, rows=rows, cols=cols, values=values,
        n_trials=len(faults_batch),
        checksum_trials=np.asarray(checksum_trials, dtype=np.intp),
    )


def sites_from_flat_specs(
    c_clean: np.ndarray,
    trial_ids: np.ndarray,
    specs: SpecArrays,
    n_trials: int,
) -> FaultSites:
    """:class:`FaultSites` valued straight from drawn spec columns.

    The fused fast path for freshly *drawn* batches
    (:meth:`repro.faults.FaultCampaign.run_batch`): ``trial_ids[i]`` is
    the trial of ``specs`` entry ``i``, entries are in trial-major spec
    order, every spec targets the original path, and the caller
    guarantees no trial strikes one site twice — so the dict-based
    first-occurrence walk of :func:`faulted_site_values` collapses to
    one gather + one :func:`corrupted_values_columns` call, with no
    :class:`FaultSpec` object built.  Bit-identical to
    :func:`faulted_site_values` on the assembled batch: unique sites in
    trial-major order *are* first-occurrence order, and single-step
    corruption over disjoint elements matches the stepped application
    per element.
    """
    if len(trial_ids) != len(specs):
        raise FaultInjectionError(
            f"mismatched flat site arrays: {len(trial_ids)} trials, "
            f"{len(specs)} specs"
        )
    rows = np.asarray(specs.rows, dtype=np.intp)
    cols = np.asarray(specs.cols, dtype=np.intp)
    rows_total, cols_total = c_clean.shape
    out_of_bounds = (rows >= rows_total) | (cols >= cols_total)
    if len(rows) and out_of_bounds.any():
        i = int(np.flatnonzero(out_of_bounds)[0])
        raise FaultInjectionError(
            f"fault site ({rows[i]}, {cols[i]}) outside "
            f"accumulator {rows_total}x{cols_total}"
        )
    return FaultSites(
        trials=np.asarray(trial_ids, dtype=np.intp),
        rows=rows,
        cols=cols,
        values=corrupted_values_columns(c_clean[rows, cols], specs),
        n_trials=n_trials,
    )

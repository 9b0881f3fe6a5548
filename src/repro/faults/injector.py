"""Application of fault specs to numeric accumulators.

Two granularities: :func:`apply_fault_to_accumulator` corrupts one
element of one accumulator (the scalar reference semantics, shared
with checksum-side elements through :func:`corrupted_element`), and
:func:`faulted_site_values` computes the final post-fault value of
every struck output element of a :class:`~repro.faults.model.
SpecArrays` batch *without* materializing any per-trial accumulator —
the fault→coordinate mapping that feeds the struck-check re-reduction
of :meth:`repro.abft.base.PreparedExecution.inject_batch`.

The batch path reads the spec columns only.  :func:`keyed_corruption`
applies the entries that strike one keyed element (a trial's output
site, or a trial's checksum) in entry order, one vectorized
corruption per occurrence rank, and is bit-identical per element to
:func:`corrupted_element` (NaN payloads aside): additive faults
accumulate in float64 before rounding back to the element's dtype,
and bit flips operate on the same FP32/FP16 views the scalar helpers
use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FaultInjectionError
from .bits import flip_fp16_bit, flip_fp32_bit
from .model import KINDS, PATHS, FaultKind, FaultPath, FaultSpec, SpecArrays


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


def _corrupted(
    values: np.ndarray,
    codes: np.ndarray,
    bits: np.ndarray,
    spec_values: np.ndarray,
) -> np.ndarray:
    """Entry ``i`` of ``values`` struck by kind ``KINDS[codes[i]]``.

    Float elements keep their dtype (FP32 accumulators, float32 or
    float64 checksum sides) and take the float semantics of
    :func:`corrupted_value`; integer ones those of
    :func:`corrupted_int32_value` — bit flips XOR the 32-bit word (an
    FP16 flip strikes the low half-word), ``ADD``/``SET`` round the
    value to the nearest integer and wrap in two's complement.  Bits
    reduce modulo the kind's width.  Values leaving a format's range
    become the inf/NaN the hardware would hold.
    """
    integer = np.issubdtype(values.dtype, np.integer)
    out = np.array(values, dtype=np.int32 if integer else values.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for code, kind in enumerate(KINDS):
            sel = np.flatnonzero(codes == code)
            if len(sel):
                out[sel] = _strike(out[sel], kind, bits[sel], spec_values[sel], integer)
    return out


def _strike(
    out: np.ndarray, kind: FaultKind, bits: np.ndarray, spec_values: np.ndarray,
    integer: bool,
) -> np.ndarray:
    """``out`` struck by ``kind`` entry by entry (see :func:`_corrupted`)."""
    if kind in (FaultKind.ADD, FaultKind.SET):
        news = np.asarray(spec_values, dtype=np.float64)
        if integer:
            ints = _int32_words(news)
            if kind is FaultKind.ADD:
                ints = out.astype(np.int64) + ints
            return (ints & _WORD).astype(np.uint32).view(np.int32)
        if kind is FaultKind.ADD:
            news = out.astype(np.float64) + news
        return news.astype(out.dtype)
    width = 32 if kind is FaultKind.BITFLIP_FP32 else 16
    shifts = (np.asarray(bits) % width).astype(np.uint32)
    if integer:
        return (out.view(np.uint32) ^ np.left_shift(np.uint32(1), shifts)).view(np.int32)
    if kind is FaultKind.BITFLIP_FP32:
        words = out.astype(np.float32).view(np.uint32)
        flipped = (words ^ np.left_shift(np.uint32(1), shifts)).view(np.float32)
    else:
        halves = out.astype(np.float16).view(np.uint16)
        masks = np.left_shift(np.uint16(1), shifts.astype(np.uint16))
        flipped = (halves ^ masks).view(np.float16)
    # Through float64 like the scalar helpers, so an FP32 element takes
    # the quieted pattern of a flip into the NaN space, not raw bits.
    return flipped.astype(np.float64).astype(out.dtype)


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


def keyed_corruption(
    keys: np.ndarray,
    clean: np.ndarray,
    codes: np.ndarray,
    bits: np.ndarray,
    spec_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply fault entries to keyed elements, repeats in entry order.

    Entry ``i`` strikes the element named ``keys[i]``, whose clean
    value is ``clean[i]``, with kind ``KINDS[codes[i]]``.  Returns
    ``(first, final)``: ``first`` holds the entry index of each unique
    key's first occurrence, in first-occurrence order, and ``final``
    that element's value after every entry striking it was applied in
    entry order — what :func:`corrupted_element` applied key by key
    yields.  One stable sort ranks each entry among its key's
    occurrences; each rank is one :func:`_corrupted` call, so a batch
    without repeated keys needs one.
    """
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    head = np.ones(n, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    if len(starts) == n:  # no repeated key: one rank, entries are sites
        return np.arange(n), _corrupted(clean, codes, bits, spec_values)
    group = np.cumsum(head) - 1
    # Unique keys in first-occurrence order: a stable sort puts each
    # key's first entry at the head of its group.
    by_first = np.argsort(order[starts])
    site = np.empty(len(starts), dtype=np.intp)
    site[by_first] = np.arange(len(starts))
    entry_site = np.empty(n, dtype=np.intp)
    entry_site[order] = site[group]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - starts[group]
    first = order[starts][by_first]
    final = clean[first]
    for r in range(int(rank.max()) + 1):
        sel = np.flatnonzero(rank == r)
        at = entry_site[sel]
        final[at] = _corrupted(final[at], codes[sel], bits[sel], spec_values[sel])
    return first, final


@dataclass(frozen=True)
class FaultSites:
    """Every fault site of a trial batch, with final values.

    One entry per **unique** original-path ``(trial, row, col)`` site,
    trial-major and in first-occurrence order within each trial:
    ``values[i]`` is the value the accumulator element would hold after
    *all* of that trial's faults on that site were applied in spec
    order.  This is the struck-check engine's whole view of a batch's
    output side — which output elements changed and what they became —
    derived without touching an ``(N, m, n)`` accumulator.
    ``checksum`` holds the batch's checksum-path entries, in spec
    order: the faults that corrupt a check's checksum side instead.
    """

    trials: np.ndarray  # (S,) intp — trial index per site
    rows: np.ndarray  # (S,) intp — padded accumulator row
    cols: np.ndarray  # (S,) intp — padded accumulator column
    values: np.ndarray  # (S,) accumulator dtype — final post-fault value
    n_trials: int
    checksum: SpecArrays

    def __len__(self) -> int:
        return len(self.trials)

    def deltas(self, c_clean: np.ndarray) -> np.ndarray:
        """Per-site signed corruption deltas against a clean grid: ``(S,)``.

        ``deltas[i] = float64(values[i]) - float64(c_clean[site i])`` —
        what each struck output element moved by after all of its
        trial's faults were applied.  Non-finite entries mark faults
        that flipped an element into inf/NaN.  This is the quantity the
        campaign layer classifies significance from.
        """
        return self.values.astype(np.float64) - c_clean[
            self.rows, self.cols
        ].astype(np.float64)


_NO_SITES = np.empty(0, dtype=np.intp)
_ORIGINAL = PATHS.index(FaultPath.ORIGINAL)


def faulted_site_values(c_clean: np.ndarray, batch: SpecArrays) -> FaultSites:
    """Map a trial batch's faults to final site values, from its columns.

    Original-path entries are keyed by ``(trial, row, col)`` and valued
    by :func:`keyed_corruption` over the clean elements they strike —
    O(faults), not O(trials x outputs), and bit-identical per element
    to applying each trial's faults in spec order to a copy of the
    accumulator with :func:`apply_fault_to_accumulator`.
    Checksum-path entries pass through as :attr:`FaultSites.checksum`.

    Every entry is bounds-checked here, once, against the padded grid —
    checksum-path ones too, since their coordinates select the check
    they corrupt — and an out-of-range site raises
    :class:`~repro.errors.FaultInjectionError`.
    """
    if not len(batch.rows):
        return FaultSites(
            _NO_SITES, _NO_SITES, _NO_SITES, np.empty(0, dtype=c_clean.dtype),
            n_trials=len(batch), checksum=batch,
        )
    n_rows, n_cols = c_clean.shape
    rows, cols = batch.rows, batch.cols
    if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
        outside = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
        i = int(np.flatnonzero(outside)[0])
        raise FaultInjectionError(
            f"fault site ({rows[i]}, {cols[i]}) outside "
            f"accumulator {n_rows}x{n_cols}"
        )
    original = batch.paths == _ORIGINAL
    checksum = batch.select(~original)
    if len(checksum.rows):
        batch = batch.select(original)
    trials = batch.entry_trials()
    rows = np.asarray(batch.rows, dtype=np.intp)
    cols = np.asarray(batch.cols, dtype=np.intp)
    first, values = keyed_corruption(
        (trials * n_rows + rows) * n_cols + cols,
        c_clean[rows, cols],
        batch.kind_codes,
        batch.bits,
        batch.values,
    )
    if len(first) < len(trials):  # a trial repeated a site
        trials, rows, cols = trials[first], rows[first], cols[first]
    return FaultSites(
        trials, rows, cols, values, n_trials=len(batch), checksum=checksum
    )

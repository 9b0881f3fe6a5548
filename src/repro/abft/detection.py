"""Tolerance-aware checksum comparison.

ABFT in floating point cannot demand bitwise equality: the checksum dot
product and the output summation accumulate the same terms in different
orders.  Comparisons therefore use the summation forward-error bound
from :class:`repro.config.DetectionConstants`: a mismatch is a fault
only if it exceeds the rounding noise that the reduction length and the
accumulated magnitude can explain.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_DETECTION, DetectionConstants
from ..errors import DetectionError


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of evaluating one family of ABFT checks.

    Attributes
    ----------
    detected:
        True if any individual check exceeded its tolerance.
    violations:
        Indices (into the flattened check array) of failed checks —
        thread-level schemes use these to localize the faulty region.
    max_residual:
        Largest ``|lhs - rhs|`` observed.
    tolerance:
        The largest tolerance applied (diagnostic).
    checks:
        Number of individual equality checks evaluated.
    """

    detected: bool
    violations: tuple[int, ...]
    max_residual: float
    tolerance: float
    checks: int


class VerdictColumns(Sequence):
    """The verdicts of one trial batch, held as columns.

    A ``Sequence[CheckVerdict]`` whose items are built on indexing:
    campaigns read the columns and never pay for per-trial verdict
    objects, while per-trial callers see exactly the verdicts the
    scalar path renders.

    Attributes
    ----------
    detected, max_residual, tolerance:
        Per-trial ``(N,)`` arrays of the matching
        :class:`CheckVerdict` fields.
    checks:
        Number of checks per trial (one check array serves a batch).
    ptr, idx:
        Violations in CSR form: trial ``i`` violates checks
        ``idx[ptr[i]:ptr[i + 1]]``.
    """

    __slots__ = ("detected", "max_residual", "tolerance", "checks", "ptr", "idx")

    def __init__(
        self,
        detected: np.ndarray,
        max_residual: np.ndarray,
        tolerance: np.ndarray,
        checks: int,
        ptr: np.ndarray,
        idx: np.ndarray,
    ) -> None:
        self.detected = detected
        self.max_residual = max_residual
        self.tolerance = tolerance
        self.checks = checks
        self.ptr = ptr
        self.idx = idx

    def __len__(self) -> int:
        return len(self.detected)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"verdict index {i} out of range for {n} trials")
        i %= n
        return CheckVerdict(
            detected=bool(self.detected[i]),
            violations=tuple(self.idx[self.ptr[i]:self.ptr[i + 1]].tolist()),
            max_residual=float(self.max_residual[i]),
            tolerance=float(self.tolerance[i]),
            checks=self.checks,
        )


def _tolerances(
    magnitudes: np.ndarray | float, n_terms: int, constants: DetectionConstants
) -> np.ndarray:
    """Per-check float64 tolerances: the rounding-noise bound of §7.

    One expression for every comparison variant, so a struck check's
    tolerance is bit-equal to the one the full comparison computes.
    """
    terms = max(int(n_terms), 2)
    gamma = (np.log2(terms) + 1.0) * constants.fp32_unit_roundoff
    mags = np.asarray(magnitudes, dtype=np.float64)
    return np.maximum(constants.atol_floor, constants.rtol_slack * gamma * np.abs(mags))


def _csr_ptr(counts: np.ndarray) -> np.ndarray:
    ptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def compare_checksums_batch(
    checksum_side: np.ndarray,
    output_side: np.ndarray,
    *,
    n_terms: int,
    magnitudes: np.ndarray | float,
    constants: DetectionConstants = DEFAULT_DETECTION,
) -> VerdictColumns:
    """Render the verdicts of every trial of a stacked comparison.

    Axis 0 indexes independent trials; the remaining axes are per-trial
    check arrays.  Either side may carry a leading axis of 1 when its
    values are fault-invariant (it broadcasts across trials without
    copying), and ``magnitudes`` broadcasts against the per-trial check
    shape.

    Every operation is elementwise, so trial ``i`` of the result is
    independent of the batch size.  This is the full comparison that
    :func:`compare_checksums_sparse` reproduces from struck checks
    alone — the engine never materializes the stacked check arrays it
    takes, but the test suite's dense oracle does, and the two must
    agree field for field.  A single comparison is a batch of one:
    ``compare_checksums_batch(lhs[None], rhs[None], ...)[0]``.
    """
    lhs = np.asarray(checksum_side)
    rhs = np.asarray(output_side)
    if lhs.ndim < 2 or rhs.ndim < 2 or lhs.shape[1:] != rhs.shape[1:]:
        raise DetectionError(
            f"batched checksum comparison shape mismatch: {lhs.shape} vs {rhs.shape}"
        )
    n = max(lhs.shape[0], rhs.shape[0])
    if lhs.shape[0] not in (1, n) or rhs.shape[0] not in (1, n):
        raise DetectionError(
            f"batched checksum comparison trial-axis mismatch: "
            f"{lhs.shape[0]} vs {rhs.shape[0]}"
        )
    tail = lhs.shape[1:]

    # One difference array is the only batch-sized temporary; inputs
    # cast on the fly inside the ufunc.  The working dtype follows the
    # inputs (thread-level reducers hand over FP32, matching their FP32
    # hardware accumulation; scalar checks arrive as float64), so the
    # memory-bound comparison never pays for precision the tolerance
    # model does not assume.
    dtype = np.result_type(lhs, rhs, np.float32)
    # inf - inf (both sides blown up by faults) is a legitimate NaN
    # residual — non-finite always counts as detected below.
    with np.errstate(invalid="ignore"):
        residual = np.subtract(lhs, rhs, dtype=dtype)
    np.abs(residual, out=residual)
    residual = np.broadcast_to(residual, (n, *tail)).reshape(n, -1)

    tol = _tolerances(magnitudes, n_terms, constants)
    if tol.ndim > len(tail):  # per-trial magnitudes (e.g. replication)
        tol_flat = np.broadcast_to(tol, (n, *tail)).reshape(n, -1)
        tolerance = (
            tol_flat.max(axis=1) if tol_flat.shape[1] else np.zeros(n)
        )
    else:  # fault-invariant magnitudes: one tolerance serves every trial
        tol_flat = np.broadcast_to(tol, tail).reshape(1, -1)
        tolerance = np.full(n, float(tol.max()) if tol.size else 0.0)

    checks = residual.shape[1]
    bad = residual > tol_flat
    bad |= ~np.isfinite(residual)
    detected = bad.any(axis=1)
    if checks:
        # max propagates both NaN and inf, so one reduction yields the
        # "inf when any residual is non-finite, max otherwise" contract.
        raw_max = residual.max(axis=1)
        max_residual = np.where(np.isfinite(raw_max), raw_max, np.inf)
    else:
        max_residual = np.full(n, np.inf)

    # One batch-wide nonzero lists every violation, trial-major: its
    # trial indices count each trial's span of the CSR index array.
    if detected.any():
        trial_idx, check_idx = np.nonzero(bad)
        ptr = _csr_ptr(np.bincount(trial_idx, minlength=n))
    else:
        check_idx = np.empty(0, dtype=np.intp)
        ptr = np.zeros(n + 1, dtype=np.intp)
    return VerdictColumns(
        detected=detected,
        max_residual=max_residual.astype(np.float64),
        tolerance=np.asarray(tolerance, dtype=np.float64),
        checks=checks,
        ptr=ptr,
        idx=check_idx,
    )


# ----------------------------------------------------------------------
# Struck-check comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CleanComparison:
    """Fault-invariant half of a checksum comparison, prepared once.

    Holds the clean check arrays' full comparison — both sides, per
    -check residuals, violation mask, tolerances — so
    :func:`compare_checksums_sparse` can render a trial's verdict from
    *only its struck checks*: untouched checks keep their clean
    residuals and tolerances, and the trial's ``max_residual`` is the
    larger of its fresh struck keys and the largest clean key it left
    untouched.

    Attributes
    ----------
    checksum_side, output_side:
        Flat clean check values of each side (the comparison's lhs and
        rhs), in their own dtypes.
    residual:
        Flat clean ``|lhs - rhs|`` in the comparison working dtype.
    key:
        ``residual`` with non-finite entries mapped to ``+inf`` — the
        max-reduction key (``max`` must report inf whenever any
        residual is non-finite).
    tol_flat:
        Per-check clean tolerances.
    bad:
        Clean violation mask; ``violations``/``n_violations`` cache its
        nonzero indices and count.
    max_residual, tolerance, checks:
        The clean verdict's scalar fields.
    dtype:
        Working dtype of the full comparison these checks would use.
    n_terms, constants:
        The tolerance model's inputs, for struck checks whose magnitude
        bound differs from the clean one.
    """

    checksum_side: np.ndarray
    output_side: np.ndarray
    residual: np.ndarray
    key: np.ndarray
    tol_flat: np.ndarray
    bad: np.ndarray
    violations: np.ndarray
    n_violations: int
    max_residual: float
    tolerance: float
    checks: int
    dtype: np.dtype
    n_terms: int
    constants: DetectionConstants


def prepare_clean_comparison(
    checksum_side: np.ndarray,
    output_side: np.ndarray,
    *,
    n_terms: int,
    magnitudes: np.ndarray | float,
    constants: DetectionConstants = DEFAULT_DETECTION,
) -> CleanComparison:
    """Build the fault-invariant comparison state for one clean check set.

    Runs the same elementwise operations as
    :func:`compare_checksums_batch` on the (flattened) clean arrays and
    keeps every intermediate the struck-check path needs.
    ``magnitudes`` are the clean bounds — a scalar or one per check;
    a struck check whose bound a fault moves carries its own to
    :func:`compare_checksums_sparse`.
    """
    lhs = np.asarray(checksum_side).reshape(-1)
    rhs = np.asarray(output_side).reshape(-1)
    if lhs.shape != rhs.shape:
        raise DetectionError(
            f"checksum comparison shape mismatch: {lhs.shape} vs {rhs.shape}"
        )
    dtype = np.result_type(lhs, rhs, np.float32)
    with np.errstate(invalid="ignore"):
        residual = np.subtract(lhs, rhs, dtype=dtype)
    np.abs(residual, out=residual)

    if np.ndim(magnitudes) > np.asarray(checksum_side).ndim:
        raise DetectionError(
            "prepare_clean_comparison needs fault-invariant magnitudes"
        )
    tol = _tolerances(magnitudes, n_terms, constants)
    tol_flat = np.ascontiguousarray(
        np.broadcast_to(tol, np.asarray(output_side).shape).reshape(-1),
        dtype=np.float64,
    )

    finite = np.isfinite(residual)
    bad = residual > tol_flat
    bad |= ~finite
    key = np.where(finite, residual.astype(np.float64), np.inf)
    violations = np.flatnonzero(bad)
    checks = int(residual.size)
    if checks:
        raw_max = float(residual.max())
        max_residual = raw_max if np.isfinite(raw_max) else float("inf")
    else:
        max_residual = float("inf")
    return CleanComparison(
        checksum_side=lhs,
        output_side=rhs,
        residual=residual,
        key=key,
        tol_flat=tol_flat,
        bad=bad,
        violations=violations,
        n_violations=len(violations),
        max_residual=max_residual,
        tolerance=float(tol.max()) if tol.size else 0.0,
        checks=checks,
        dtype=dtype,
        n_terms=int(n_terms),
        constants=constants,
    )


def _largest_untouched(
    values: np.ndarray, checks: np.ndarray, spans: np.ndarray, k: int
) -> np.ndarray:
    """Per struck span, the largest of ``values`` outside its checks.

    With ``k`` the longest span, that entry lies among the ``k + 1``
    largest of ``values`` whatever order ties take, so one
    ``np.argpartition`` serves every span.  A span that struck every
    check gets ``-inf``; NaN propagates as in ``max``.
    """
    n = len(values)
    if k + 1 < n:
        top = np.sort(np.argpartition(values, n - k - 1)[-(k + 1):])
    else:
        top = np.arange(n)
    pos = np.minimum(np.searchsorted(top, checks), len(top) - 1)
    hit = top[pos] == checks
    candidates = np.broadcast_to(values[top], (len(spans), len(top))).copy()
    row = np.repeat(np.arange(len(spans)), spans)
    candidates[row[hit], pos[hit]] = -np.inf
    return candidates.max(axis=1)


def compare_checksums_sparse(
    clean: CleanComparison,
    trials: np.ndarray,
    checks: np.ndarray,
    values: np.ndarray,
    *,
    n_trials: int,
    references: np.ndarray | None = None,
    magnitudes: np.ndarray | None = None,
) -> VerdictColumns:
    """Verdicts from struck checks alone, against a clean comparison.

    ``(trials, checks, values)`` hold one entry per unique struck
    (trial, check) pair, trial-major with ascending checks per trial:
    the check's output-side value.  ``references``, when given, is each
    entry's checksum-side value (a checksum-path fault corrupted it;
    default: the clean one), and ``magnitudes`` each entry's magnitude
    bound (default: the clean bound — schemes whose bound a fault moves
    pass their own).  Each listed trial's verdict combines its struck
    checks' fresh residuals and tolerances with the clean comparison's
    untouched remainder; unlisted trials get the clean verdict
    outright.  Bit-identical, field for field, to
    :func:`compare_checksums_batch` on the materialized check arrays —
    pinned against the test suite's dense oracle.

    The whole batch is array work over the struck spans:

    * violation counts are the clean count, minus the clean violations
      a trial struck, plus its fresh ones (``np.add.reduceat`` over the
      spans); the CSR index array lists them ascending per trial;
    * ``max_residual`` is the larger of a trial's fresh struck keys and
      the largest clean key it left untouched, and with ``magnitudes``
      the trial's ``tolerance`` likewise combines its struck and
      untouched tolerances (:func:`_largest_untouched`).
    """
    n_viol = clean.n_violations
    counts = np.full(n_trials, n_viol, dtype=np.intp)
    max_residual = np.full(n_trials, clean.max_residual)
    tolerance = np.full(n_trials, clean.tolerance)
    if not len(trials):
        ptr = _csr_ptr(counts)
        idx = np.tile(clean.violations, n_trials)
        return VerdictColumns(counts > 0, max_residual, tolerance, clean.checks, ptr, idx)

    if references is None:
        references = clean.checksum_side[checks]
    with np.errstate(invalid="ignore"):
        residual = np.abs(np.subtract(references, values, dtype=clean.dtype))
    if magnitudes is None:
        tol = clean.tol_flat[checks]
    else:
        tol = _tolerances(magnitudes, clean.n_terms, clean.constants)
    finite = np.isfinite(residual)
    new_bad = residual > tol
    new_bad |= ~finite
    new_key = np.where(finite, residual.astype(np.float64), np.inf)

    # Struck spans: one per listed trial, entries contiguous.
    starts = np.flatnonzero(np.diff(trials)) + 1
    starts = np.concatenate(([0], starts))
    spans = np.diff(np.append(starts, len(trials)))
    touched = trials[starts]
    k = int(spans.max())

    counts[touched] += np.add.reduceat(new_bad.astype(np.intp), starts)
    if n_viol:
        counts[touched] -= np.add.reduceat(clean.bad[checks].astype(np.intp), starts)
    max_residual[touched] = np.maximum(
        _largest_untouched(clean.key, checks, spans, k),
        np.maximum.reduceat(new_key, starts),
    )
    if magnitudes is not None:
        tolerance[touched] = np.maximum(
            _largest_untouched(clean.tol_flat, checks, spans, k),
            np.maximum.reduceat(tol, starts),
        )

    ptr = _csr_ptr(counts)
    if not n_viol:
        # No clean violations: each trial's violations are its fresh
        # ones, in (trial-major) entry order.
        idx = checks[new_bad]
    else:
        # Clean violations of every trial, minus the ones it struck,
        # plus its fresh ones — sorted per trial.
        pair_trial = np.repeat(np.arange(n_trials), n_viol)
        pair_check = np.tile(clean.violations, n_trials)
        struck_keys = trials * clean.checks + checks
        pair_keys = pair_trial * clean.checks + pair_check
        kept = ~np.isin(pair_keys, struck_keys)
        all_trial = np.concatenate((pair_trial[kept], trials[new_bad]))
        all_check = np.concatenate((pair_check[kept], checks[new_bad]))
        idx = all_check[np.lexsort((all_check, all_trial))]
    return VerdictColumns(counts > 0, max_residual, tolerance, clean.checks, ptr, idx)

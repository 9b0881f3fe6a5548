"""Checksum mathematics for global and thread-level ABFT.

Conventions (paper §2.4, Figs. 1, 6, 7):

* The **column checksum** of ``A`` (M x K) sums each column over the M
  rows, yielding a ``1 x K`` vector — the *activation checksum*.
* The **row checksum** of ``B`` (K x N) sums each row over the N
  columns, yielding a ``K x 1`` vector — the *weight checksum*.
* Their dot product equals, absent faults, the summation of all entries
  of ``C``.

Thread-level schemes apply the same identities per ``Mt x Nt`` thread
fragment: one-sided checks ``At @ w_t == rowsums(Ct)`` (Mt equalities
per thread), two-sided checks the single scalar
``(1^T At) @ w_t == sum(Ct)``.

All functions also compute the matching *magnitude* arrays (same
reductions over absolute values), which feed the rounding-noise
tolerance in :mod:`repro.abft.detection`.

Weight-side reductions are split out into standalone builders
(:func:`global_weight_checksums`, :func:`tile_weight_checksums`,
:func:`multi_weight_checksums`): weights are constant across inference
requests (paper §2.5 precomputes them offline), so the prepared-execution
engine builds them once per layer and feeds them back into the combined
builders, which then skip the ``B``-side work bit-identically.

Output-side reducers are *batch-aware*: the ``_batch`` variants reduce a
stacked ``(N, m_full, n_full)`` accumulator array — N fault trials in
single NumPy calls — and the scalar variants are thin ``N == 1``
wrappers.  Sharing one reduction path (and NumPy's guarantee that a
stacked reduction applies the identical core loop per slice) is what
makes :meth:`~repro.abft.base.PreparedExecution.inject_batch`
bit-identical to sequential ``inject`` calls.

They are additionally *slice-decomposable*: every dense reducer is
structured so each output check value is produced by an independent
core reduction over one contiguous slice of the accumulator (a row, a
thread tile, or a row partial), composed in a fixed sequential-slice
-add order.  The ``*struck_*`` reducers exploit this (DESIGN.md §1.3):
given the fault sites of a batch they fully recompute *only the struck
slices* — with the identical core reduction on identically laid-out
data — which is why a struck check is bit-identical to the dense
reducer's element for it rather than merely close.  The engine only
ever runs the struck reducers and the clean (``N == 1``) reductions;
the test suite's dense oracle runs the ``_batch`` reducers over
materialized accumulators and pins the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..faults.injector import FaultSites
from ..gemm.executor import EXECUTION_STATS, TiledGemm


def _as_working(x: np.ndarray) -> np.ndarray:
    """Lift an operand to its checksum *working dtype*.

    Float operands (the FP16 pipeline) reduce in float32 — the precision
    of the CUDA-core registers the modeled checks run on, and what the
    rounding-noise tolerance budgets for.  Integer operands (the INT8
    pipeline's INT8 inputs and INT32 accumulators) reduce in float64,
    where every reachable value is an exact integer (< 2**53) — so every
    reduction is exact, order-independent, and the struck/dense
    bit-identity contract holds with no tolerance at all.
    """
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.integer):
        return x.astype(np.float64)
    return np.asarray(x, dtype=np.float32)


def _working_scalar_dtype(arr: np.ndarray) -> type:
    return np.float64 if np.issubdtype(arr.dtype, np.integer) else np.float32


def _hardware_values():
    """Arithmetic scope for reductions over a possibly non-finite grid.

    An exponent-bit flip or a ``SET`` fault can leave ±inf/NaN in an
    accumulator, and a detected-but-unrecovered one flows into every
    downstream layer's activations.  Summing ``+inf`` and ``-inf`` then
    yields the NaN the hardware's adders would produce, and a large
    finite sum may round to inf: those are the values, not numerical
    errors, so NumPy's invalid/overflow warnings are silenced here.
    """
    return np.errstate(invalid="ignore", over="ignore")


# ----------------------------------------------------------------------
# Global ABFT
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GlobalChecksums:
    """Checksum-side quantities of global ABFT for one GEMM.

    ``reference`` is the checksum dot product that must equal
    ``sum(C)``; ``magnitude`` bounds the absolute values accumulated on
    either side.
    """

    activation_checksum: np.ndarray  # (K,)
    weight_checksum: np.ndarray  # (K,)
    reference: float
    magnitude: float


@dataclass(frozen=True)
class GlobalWeightChecksums:
    """Weight-side half of global ABFT: row checksum of ``B`` (and abs)."""

    row_sums: np.ndarray  # (K,)
    abs_row_sums: np.ndarray  # (K,)


def global_weight_checksums(b_pad: np.ndarray) -> GlobalWeightChecksums:
    """Row checksum of ``B`` — the offline-precomputable half (§2.5)."""
    if b_pad.ndim != 2:
        raise ShapeError(f"B must be a 2-D matrix, got {b_pad.ndim}-D")
    EXECUTION_STATS.weight_reductions += 1
    b32 = _as_working(b_pad)
    return GlobalWeightChecksums(
        row_sums=b32.sum(axis=1), abs_row_sums=np.abs(b32).sum(axis=1)
    )


def global_checksums(
    a_pad: np.ndarray,
    b_pad: np.ndarray,
    weights: GlobalWeightChecksums | None = None,
) -> GlobalChecksums:
    """Column checksum of A, row checksum of B, and their dot product.

    When ``weights`` is supplied the ``B``-side reductions are reused
    instead of recomputed; the result is bit-identical either way.
    """
    if a_pad.ndim != 2 or b_pad.ndim != 2 or a_pad.shape[1] != b_pad.shape[0]:
        raise ShapeError(f"bad operand shapes {a_pad.shape} @ {b_pad.shape}")
    if weights is None:
        weights = global_weight_checksums(b_pad)
    EXECUTION_STATS.activation_reductions += 1
    a32 = _as_working(a_pad)
    row_b = weights.row_sums  # (K,)
    with _hardware_values():
        col_a = a32.sum(axis=0)  # (K,)
        reference = float(col_a @ row_b)
        magnitude = float(np.abs(a32).sum(axis=0) @ weights.abs_row_sums)
    return GlobalChecksums(
        activation_checksum=col_a,
        weight_checksum=row_b,
        reference=reference,
        magnitude=magnitude,
    )


def _slice_sum(arr: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right working-dtype accumulation of ``arr`` along ``axis``.

    A fixed sequential order over the (short) tile axis, realized as
    ``len - 1`` whole-array adds, in the working dtype of
    :func:`_as_working`: FP32 accumulation mirrors the hardware check
    these reducers model — the per-thread row/tile sums run on FP32
    CUDA-core registers — and the detection tolerance
    (:mod:`repro.abft.detection`) is built from the FP32 unit roundoff,
    so it is the precision the comparison already budgets for; integer
    accumulators reduce exactly in float64.
    Streaming slice adds are several times faster than NumPy's generic
    pairwise reduction when the reduced axis is a handful of elements,
    and the order is independent of every other axis, which keeps
    batched reductions bit-identical per trial slice.
    """
    view = np.moveaxis(arr, axis, -1)
    acc = view[..., 0].astype(_working_scalar_dtype(view))
    with _hardware_values():
        for j in range(1, view.shape[-1]):
            acc += view[..., j]
    return acc


def output_summation(c_pad: np.ndarray) -> float:
    """Fused output summation (paper §2.5 step 2): sum of all of ``C``."""
    return float(output_summation_batch(c_pad[None])[0])


def output_row_sums(c_pad: np.ndarray) -> np.ndarray:
    """Per-row float64 partial sums of one accumulator: ``(m_full,)``.

    The slice stage of the global output summation — each row reduced
    independently over its contiguous extent.  Kept as its own function
    because the struck path recomputes exactly these slices.
    """
    if c_pad.ndim != 2:
        raise ShapeError(f"C must be a 2-D accumulator, got {c_pad.ndim}-D")
    with _hardware_values():
        return _as_working(c_pad).sum(axis=1, dtype=np.float64)


def output_summation_batch(c_batch: np.ndarray) -> np.ndarray:
    """Per-trial output summations of a stacked accumulator: ``(N,)``.

    Two-stage, slice-decomposable order: per-row float64 partial sums
    (each row an independent reduction over its contiguous extent,
    matching :func:`output_row_sums`), then one reduction over the row
    partials.  A single-element fault therefore perturbs exactly one
    row partial, which is what lets :func:`struck_output_summations`
    recompute one row instead of the whole output.
    """
    if c_batch.ndim != 3:
        raise ShapeError(f"stacked C must be 3-D, got {c_batch.ndim}-D")
    with _hardware_values():
        rows = _as_working(c_batch).sum(axis=2, dtype=np.float64)
        return rows.sum(axis=1)


def struck_output_summations(
    clean_row_sums: np.ndarray,
    c_clean: np.ndarray,
    sites: FaultSites,
) -> tuple[np.ndarray, np.ndarray]:
    """Output summations of only the trials holding fault sites.

    Returns ``(touched_trials, values)``: for each trial with at least
    one site (ascending order), the full summation rebuilt sparsely —
    struck rows recomputed from the clean row plus the sites' final
    values with the same contiguous-axis core reduction the dense path
    uses, spliced into a copy of the clean row partials, then combined
    by the same final reduction.  Bit-identical per trial to
    :func:`output_summation_batch` on the materialized accumulator.
    """
    if not len(sites):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
    m_full = len(clean_row_sums)
    keys = sites.trials * m_full + sites.rows
    uniq, inverse = np.unique(keys, return_inverse=True)
    u_trials, u_rows = np.divmod(uniq, m_full)
    struck = c_clean[u_rows].astype(_working_scalar_dtype(c_clean), copy=True)
    struck[inverse, sites.cols] = sites.values
    touched, compact = np.unique(u_trials, return_inverse=True)
    row_sums = np.broadcast_to(clean_row_sums, (len(touched), m_full)).copy()
    with _hardware_values():
        row_sums[compact, u_rows] = struck.sum(axis=1, dtype=np.float64)
        return touched, row_sums.sum(axis=1)


# ----------------------------------------------------------------------
# Thread-level ABFT
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OneSidedChecksums:
    """Checksum side of one-sided thread-level ABFT.

    ``reference[i, tj]`` is the ABFT MMA accumulator for output row
    ``i`` of the thread column-tile ``tj``:  ``A[i, :] @ w[:, tj]``
    where ``w[:, tj]`` is the weight checksum of that tile's ``Bt``.
    Must equal the row-sum of the corresponding ``Ct`` rows.
    """

    weight_checksums: np.ndarray  # (K, n_tiles)
    reference: np.ndarray  # (m_full, n_tiles)
    magnitude: np.ndarray  # (m_full, n_tiles)


@dataclass(frozen=True)
class TileWeightChecksums:
    """Per-thread-column-tile row checksums of ``B`` (and abs).

    Column ``tj`` sums the ``Nt`` columns of ``B`` owned by thread-column
    ``tj`` — the weight-side half shared by both thread-level schemes.
    """

    row_sums: np.ndarray  # (K, n_tiles)
    abs_row_sums: np.ndarray  # (K, n_tiles)


def tile_weight_checksums(
    executor: TiledGemm, b_pad: np.ndarray
) -> TileWeightChecksums:
    """Weight-side reductions of thread-level ABFT for one padded ``B``."""
    nt = executor.tile.nt
    b32 = _as_working(b_pad)
    if b32.shape != (executor.k_full, executor.n_full):
        raise ShapeError(f"padded B must be {executor.k_full}x{executor.n_full}")
    EXECUTION_STATS.weight_reductions += 1
    w = b32.reshape(executor.k_full, executor.n_tiles, nt).sum(axis=2)
    abs_w = np.abs(b32).reshape(executor.k_full, executor.n_tiles, nt).sum(axis=2)
    return TileWeightChecksums(row_sums=w, abs_row_sums=abs_w)


def one_sided_checksums(
    executor: TiledGemm,
    a_pad: np.ndarray,
    b_pad: np.ndarray,
    weights: TileWeightChecksums | None = None,
) -> OneSidedChecksums:
    """Per-thread-tile one-sided checksums, vectorized over all threads.

    The per-thread computation (paper Fig. 7, right): accumulate the row
    checksum of the ``Bt`` chunk, multiply by the full ``At`` chunk via
    ``Mt/2`` extra MMAs.  Across the whole kernel this is exactly
    ``A @ W`` where column ``tj`` of ``W`` sums the ``Nt`` columns of
    ``B`` owned by thread-column ``tj``.
    """
    if weights is None:
        weights = tile_weight_checksums(executor, b_pad)
    EXECUTION_STATS.activation_reductions += 1
    a32 = _as_working(a_pad)
    w = weights.row_sums
    with _hardware_values():
        reference = a32 @ w
        magnitude = np.abs(a32) @ weights.abs_row_sums
    return OneSidedChecksums(weight_checksums=w, reference=reference, magnitude=magnitude)


def one_sided_output_rowsums(executor: TiledGemm, c_pad: np.ndarray) -> np.ndarray:
    """Row-sums of ``C`` within each thread column-tile: (m_full, n_tiles)."""
    return one_sided_output_rowsums_batch(executor, c_pad[None])[0]


def one_sided_output_rowsums_batch(
    executor: TiledGemm, c_batch: np.ndarray
) -> np.ndarray:
    """Per-trial thread-tile row-sums: ``(N, m_full, n_tiles)``."""
    view = executor.thread_tile_view_batch(c_batch)
    sums = _slice_sum(view, 4)  # (N, m_tiles, mt, n_tiles)
    return sums.reshape(len(c_batch), executor.m_full, executor.n_tiles)


def one_sided_struck_rowsums(
    executor: TiledGemm,
    c_clean: np.ndarray,
    sites: FaultSites,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-reduced one-sided row-sum slices struck by fault sites.

    A fault at ``(row, col)`` perturbs exactly one row-sum check — the
    ``Nt`` elements of row ``row`` owned by thread column ``col // Nt``.
    Returns ``(trials, checks, values)``, one entry per unique struck
    (trial, check) pair in trial-major order: ``checks`` indexes the
    flattened ``(m_full, n_tiles)`` check array, and ``values`` is the
    slice rebuilt from the clean accumulator plus the sites' final
    values, re-reduced with the same left-to-right slice adds as
    :func:`_slice_sum` — bit-identical to the dense reducer's
    element for that slice.
    """
    nt = executor.tile.nt
    m_full, n_tiles = executor.m_full, executor.n_tiles
    if not len(sites):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0, dtype=np.float32)
    tile_cols = sites.cols // nt
    keys = (sites.trials * m_full + sites.rows) * n_tiles + tile_cols
    uniq, inverse = np.unique(keys, return_inverse=True)
    u_trials, u_checks = np.divmod(uniq, m_full * n_tiles)
    u_rows = u_checks // n_tiles
    u_tile_cols = u_checks % n_tiles
    struck = c_clean[
        u_rows[:, None], (u_tile_cols * nt)[:, None] + np.arange(nt)
    ]  # (S, nt) — fresh contiguous copies of the struck slices
    struck[inverse, sites.cols % nt] = sites.values
    return u_trials, u_checks, _slice_sum(struck, 1)


@dataclass(frozen=True)
class TwoSidedChecksums:
    """Checksum side of two-sided thread-level ABFT (one scalar per thread)."""

    reference: np.ndarray  # (m_tiles, n_tiles)
    magnitude: np.ndarray  # (m_tiles, n_tiles)


def two_sided_checksums(
    executor: TiledGemm,
    a_pad: np.ndarray,
    b_pad: np.ndarray,
    weights: TileWeightChecksums | None = None,
) -> TwoSidedChecksums:
    """Per-thread scalar checks: ``(1^T At) @ (Bt 1) == sum(Ct)``."""
    if weights is None:
        weights = tile_weight_checksums(executor, b_pad)
    EXECUTION_STATS.activation_reductions += 1
    mt = executor.tile.mt
    a32 = _as_working(a_pad)
    with _hardware_values():
        # Column checksum of each thread's At: (m_tiles, K).
        col_a = a32.reshape(executor.m_tiles, mt, executor.k_full).sum(axis=1)
        # Row checksum of each thread's Bt: (K, n_tiles).
        reference = col_a @ weights.row_sums
        magnitude = (
            np.abs(a32).reshape(executor.m_tiles, mt, executor.k_full).sum(axis=1)
            @ weights.abs_row_sums
        )
    return TwoSidedChecksums(reference=reference, magnitude=magnitude)


def thread_tile_sums(executor: TiledGemm, c_pad: np.ndarray) -> np.ndarray:
    """Sum of each thread's ``Ct`` fragment: (m_tiles, n_tiles)."""
    return thread_tile_sums_batch(executor, c_pad[None])[0]


def thread_tile_sums_batch(executor: TiledGemm, c_batch: np.ndarray) -> np.ndarray:
    """Per-trial thread-fragment sums: ``(N, m_tiles, n_tiles)``."""
    view = executor.thread_tile_view_batch(c_batch)
    rows = _slice_sum(view, 4)  # (N, m_tiles, mt, n_tiles)
    return _slice_sum(rows, 2)


def thread_tile_struck_sums(
    executor: TiledGemm,
    c_clean: np.ndarray,
    sites: FaultSites,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-reduced thread-tile sums struck by fault sites.

    A fault at ``(row, col)`` perturbs exactly one ``Mt x Nt`` tile
    sum.  Returns ``(trials, checks, values)``, one entry per unique
    struck (trial, check) pair in trial-major order: ``checks`` indexes
    the flattened ``(m_tiles, n_tiles)`` check array, and ``values`` is
    the tile rebuilt from the clean accumulator plus the sites' final
    values, re-reduced in the dense composition order — left-to-right
    adds over the ``Nt`` axis, then over the ``Mt`` axis — bit
    -identical to the dense reducer's element for that tile.
    """
    mt, nt = executor.tile.mt, executor.tile.nt
    m_tiles, n_tiles = executor.m_tiles, executor.n_tiles
    if not len(sites):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0, dtype=np.float32)
    tile_rows = sites.rows // mt
    tile_cols = sites.cols // nt
    keys = (sites.trials * m_tiles + tile_rows) * n_tiles + tile_cols
    uniq, inverse = np.unique(keys, return_inverse=True)
    u_trials, u_checks = np.divmod(uniq, m_tiles * n_tiles)
    u_tile_rows = u_checks // n_tiles
    u_tile_cols = u_checks % n_tiles
    struck = c_clean[
        (u_tile_rows * mt)[:, None, None] + np.arange(mt)[None, :, None],
        (u_tile_cols * nt)[:, None, None] + np.arange(nt)[None, None, :],
    ]  # (S, mt, nt) — fresh contiguous copies of the struck tiles
    struck[inverse, sites.rows % mt, sites.cols % nt] = sites.values
    rows = _slice_sum(struck, 2)  # (S, mt)
    return u_trials, u_checks, _slice_sum(rows, 1)


# ----------------------------------------------------------------------
# Traditional replication
# ----------------------------------------------------------------------
def replication_struck_elements(
    c_clean: np.ndarray, sites: FaultSites
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Struck checks of the elementwise replica compare.

    Traditional replication compares every accumulator element with
    its replica, so a fault site *is* its struck check: check ``row *
    n_full + col``, output-side value the site's final value — no
    reduction to recompute.  Returns ``(trials, checks, values)``, one
    entry per unique site in trial-major, ascending-check order.
    """
    checks = sites.rows * c_clean.shape[1] + sites.cols
    order = np.lexsort((checks, sites.trials))
    return sites.trials[order], checks[order], sites.values[order]


# ----------------------------------------------------------------------
# Multi-fault checksum weights
# ----------------------------------------------------------------------
def vandermonde_weights(length: int, count: int) -> np.ndarray:
    """``count`` independent checksum weight vectors of ``length``.

    Row ``s`` is the geometric progression
    ``alpha_s ** (j / (length - 1))`` for positions ``j = 0 .. length-1``
    (a Vandermonde row with *normalized fractional* exponents, not the
    classic integer powers ``[1, alpha, alpha^2, ...]``), evaluated at
    distinct alphas ``1, 2, 3, ...`` and rescaled so each row's largest
    weight is exactly 1.0.  Distinct alphas keep any ``count`` rows
    linearly independent, so ``count`` simultaneous checks can detect up
    to ``count`` faults (paper §2.4), while the fractional exponents
    bound every weight in ``(0, 1]`` regardless of ``length`` — integer
    powers would overflow FP16's dynamic range after a few dozen
    positions.  Callers should still keep ``count`` modest.
    """
    if length <= 0 or count <= 0:
        raise ShapeError("vandermonde_weights needs positive length and count")
    alphas = np.arange(1, count + 1, dtype=np.float64)
    exponents = np.arange(length, dtype=np.float64)
    # Normalize each row so its largest weight is 1.0 (numerical hygiene).
    rows = alphas[:, None] ** (exponents[None, :] / max(length - 1, 1))
    return (rows / rows.max(axis=1, keepdims=True)).astype(np.float32)


def integer_checksum_weights(length: int, count: int) -> np.ndarray:
    """``count`` independent *integer* checksum weight vectors.

    Row ``s`` holds the classic integer powers ``(j+1)**s`` for
    positions ``j = 0 .. length-1`` — a true Vandermonde system, so any
    ``count`` rows are linearly independent.  Used by the INT8 pipeline,
    where weights must be exactly representable so weighted checks stay
    exact integers in float64; the fractional
    :func:`vandermonde_weights` rows would reintroduce rounding noise
    and break the zero-tolerance detection contract.  Every weight is
    >= 1, so any integer corruption of magnitude >= 1 moves each check
    by >= 1 — detectable at the half-ULP tolerance.  The flip side is
    growth: magnitudes scale like ``length**(count - 1)``, which is why
    the int8 ``global_multi`` scheme guards its magnitude bound against
    the float64 exact-integer range at prepare time.
    """
    if length <= 0 or count <= 0:
        raise ShapeError(
            "integer_checksum_weights needs positive length and count"
        )
    positions = np.arange(1, length + 1, dtype=np.float64)
    return np.stack([positions**s for s in range(count)])


@dataclass(frozen=True)
class MultiWeightChecksums:
    """Weight-side half of multi-checksum global ABFT.

    ``combos[s]`` is ``B @ w_n[s]`` — the weighted row combination the
    scheme's check ``s`` dots against the weighted activation checksum;
    ``abs_combos`` carries the matching magnitude reductions.
    """

    weights_n: np.ndarray  # (count, n_full)
    combos: np.ndarray  # (count, K)
    abs_combos: np.ndarray  # (count, K)


def multi_weight_checksums(
    b_pad: np.ndarray, count: int, *, integer: bool = False
) -> MultiWeightChecksums:
    """Weighted ``B``-side combinations for ``count`` independent checks.

    ``integer`` selects :func:`integer_checksum_weights` (the INT8
    pipeline's exact weights) over the FP16 pipeline's normalized
    :func:`vandermonde_weights`.
    """
    if b_pad.ndim != 2:
        raise ShapeError(f"B must be a 2-D matrix, got {b_pad.ndim}-D")
    EXECUTION_STATS.weight_reductions += 1
    b32 = _as_working(b_pad)
    if integer:
        w_n = integer_checksum_weights(b_pad.shape[1], count)
    else:
        w_n = vandermonde_weights(b_pad.shape[1], count)
    combos = w_n @ b32.T  # (count, K) in one matmul
    abs_combos = np.abs(w_n) @ np.abs(b32).T
    return MultiWeightChecksums(weights_n=w_n, combos=combos, abs_combos=abs_combos)


def _weights_n_t(weights_n: np.ndarray) -> np.ndarray:
    """Contiguous ``(n_full, count)`` float64 column-weight operand.

    Built identically by the dense, clean, and struck row-partial
    stages so every ``(1, n) @ (n, count)`` core call sees the same
    operand layout.
    """
    return np.ascontiguousarray(np.asarray(weights_n, dtype=np.float64).T)


def multi_row_partials(c_pad: np.ndarray, weights_n: np.ndarray) -> np.ndarray:
    """Per-row column-weight contractions of one accumulator: ``(m, count)``.

    Row ``i`` holds ``C[i, :] @ w_n[s]`` for every check ``s`` — the
    slice stage of the weighted output summation, expressed as stacked
    ``(1, n) @ (n, count)`` matmuls so each row's result comes from an
    independent core call on that row's contiguous data.  A
    single-element fault perturbs exactly one row of this array.
    """
    if c_pad.ndim != 2:
        raise ShapeError(f"C must be a 2-D accumulator, got {c_pad.ndim}-D")
    c64 = np.asarray(c_pad, dtype=np.float64)
    with _hardware_values():
        out = c64[:, None, :] @ _weights_n_t(weights_n)  # (m, 1, count)
    return out[:, 0, :]


def _multi_combine_row_partials(
    row_partials: np.ndarray, weights_m: np.ndarray
) -> np.ndarray:
    """Row-weight contraction of stacked row partials: ``(N, count)``.

    ``out[i, s] = w_m[s] @ row_partials[i, :, s]`` via stacked
    ``(1, m) @ (m, 1)`` matmuls, the same final combine for the dense
    and struck paths.
    """
    w_m = np.asarray(weights_m, dtype=np.float64)  # (count, m_full)
    stacked = row_partials.transpose(0, 2, 1)[:, :, :, None]  # (N, count, m, 1)
    with _hardware_values():
        out = w_m[None, :, None, :] @ stacked  # (N, count, 1, 1)
    return out[..., 0, 0]


def multi_weighted_output_sums(
    c_batch: np.ndarray,
    weights_m: np.ndarray,
    weights_n: np.ndarray,
) -> np.ndarray:
    """Weighted output summations ``w_m[s] @ C @ w_n[s]``: ``(N, count)``.

    Two-stage, slice-decomposable order: per-row column-weight
    contractions (:func:`multi_row_partials` — one independent core
    call per row), then the row-weight combine.  Each (trial, check)
    scalar comes from the same core loops regardless of the batch size,
    and a single-element fault perturbs exactly one row partial, which
    is what :func:`struck_multi_weighted_sums` exploits.
    """
    if c_batch.ndim != 3:
        raise ShapeError(f"stacked C must be 3-D, got {c_batch.ndim}-D")
    c64 = np.asarray(c_batch, dtype=np.float64)
    with _hardware_values():
        partials = c64[:, :, None, :] @ _weights_n_t(weights_n)  # (N, m, 1, count)
    return _multi_combine_row_partials(partials[:, :, 0, :], weights_m)


def struck_multi_weighted_sums(
    clean_row_partials: np.ndarray,
    c_clean: np.ndarray,
    sites: FaultSites,
    weights_m: np.ndarray,
    weights_n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted output summations of only the trials holding fault sites.

    Returns ``(touched_trials, values)`` with ``values[i]`` the
    ``(count,)`` weighted summations of touched trial ``i``: struck
    rows are rebuilt from the clean accumulator plus the sites' final
    values and contracted through the same ``(1, n) @ (n, count)``
    core call as the dense path, spliced into a copy of the clean row
    partials, then run through the shared final combine.  Bit-identical
    per trial to :func:`multi_weighted_output_sums` on the materialized
    accumulator.
    """
    count = clean_row_partials.shape[1]
    if not len(sites):
        return np.empty(0, dtype=np.intp), np.empty((0, count))
    m_full = len(clean_row_partials)
    keys = sites.trials * m_full + sites.rows
    uniq, inverse = np.unique(keys, return_inverse=True)
    u_trials, u_rows = np.divmod(uniq, m_full)
    struck = c_clean[u_rows].astype(_working_scalar_dtype(c_clean), copy=True)
    struck[inverse, sites.cols] = sites.values
    struck64 = struck.astype(np.float64)
    with _hardware_values():
        new_partials = struck64[:, None, :] @ _weights_n_t(weights_n)

    touched, compact = np.unique(u_trials, return_inverse=True)
    partials = np.broadcast_to(
        clean_row_partials, (len(touched), *clean_row_partials.shape)
    ).copy()
    partials[compact, u_rows] = new_partials[:, 0, :]
    return touched, _multi_combine_row_partials(partials, weights_m)

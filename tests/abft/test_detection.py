"""Tests for the tolerance-aware checksum comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abft.detection import (
    VerdictColumns,
    compare_checksums_batch,
    compare_checksums_sparse,
    prepare_clean_comparison,
)
from repro.config import DetectionConstants
from repro.errors import DetectionError


def compare_one(checksum_side, output_side, **kwargs):
    """One trial's verdict, through the batched comparison."""
    return compare_checksums_batch(checksum_side[None], output_side[None], **kwargs)[0]


class TestCompare:
    def test_equal_values_pass(self):
        v = compare_one(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), n_terms=100, magnitudes=10.0
        )
        assert not v.detected
        assert v.checks == 2

    def test_rounding_noise_passes(self):
        lhs = np.array([1000.0])
        rhs = np.array([1000.0 * (1 + 2 ** -22)])
        v = compare_one(lhs, rhs, n_terms=4096, magnitudes=2000.0)
        assert not v.detected

    def test_large_mismatch_detected(self):
        v = compare_one(
            np.array([100.0]), np.array([105.0]), n_terms=64, magnitudes=200.0
        )
        assert v.detected
        assert v.violations == (0,)

    def test_violations_indices(self):
        lhs = np.array([[1.0, 2.0], [3.0, 999.0]])
        rhs = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = compare_one(lhs, rhs, n_terms=8, magnitudes=10.0)
        assert v.violations == (3,)

    def test_nan_always_detected(self):
        v = compare_one(
            np.array([np.nan]), np.array([1.0]), n_terms=8, magnitudes=1e30
        )
        assert v.detected
        assert v.max_residual == float("inf")

    def test_inf_always_detected(self):
        v = compare_one(
            np.array([np.inf]), np.array([1.0]), n_terms=8, magnitudes=1e30
        )
        assert v.detected

    def test_shape_mismatch_raises(self):
        with pytest.raises(DetectionError):
            compare_one(np.zeros(3), np.zeros(4), n_terms=8, magnitudes=1.0)


class TestToleranceScaling:
    def test_tolerance_grows_with_magnitude(self):
        small = compare_one(
            np.array([0.0]), np.array([0.0]), n_terms=64, magnitudes=1.0
        )
        big = compare_one(
            np.array([0.0]), np.array([0.0]), n_terms=64, magnitudes=1e6
        )
        assert big.tolerance > small.tolerance

    def test_tolerance_grows_logarithmically_with_terms(self):
        c = DetectionConstants()
        t1 = c.tolerance(2 ** 10, 1e4)
        t2 = c.tolerance(2 ** 20, 1e4)
        assert t2 == pytest.approx(t1 * 21 / 11, rel=1e-6)

    def test_atol_floor(self):
        c = DetectionConstants()
        assert c.tolerance(2, 0.0) == c.atol_floor

    def test_per_check_magnitudes_broadcast(self):
        lhs = np.array([0.0, 0.0])
        rhs = np.array([0.001, 0.001])
        mags = np.array([1.0, 1e9])
        v = compare_one(lhs, rhs, n_terms=1024, magnitudes=mags)
        # Same residual: flagged where magnitude (and thus tolerance) is
        # small, passed where the accumulated magnitude explains it.
        assert v.violations == (0,)


def _same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def _sparse_vs_dense(clean_out, struck, magnitudes):
    """Sparse verdicts of ``struck`` trials next to the dense ones.

    ``struck[t]`` maps check index -> new output-side value for trial
    ``t``; the checksum side is all zeros, so a residual is
    ``|output|``.
    """
    lhs = np.zeros_like(clean_out)
    clean = prepare_clean_comparison(
        lhs, clean_out, n_terms=64, magnitudes=magnitudes
    )
    trials, checks, values = [], [], []
    dense_out = np.tile(clean_out, (len(struck), 1))
    for t, hits in enumerate(struck):
        for c in sorted(hits):
            trials.append(t)
            checks.append(c)
            values.append(hits[c])
            dense_out[t, c] = hits[c]
    sparse = compare_checksums_sparse(
        clean,
        np.asarray(trials, dtype=np.intp),
        np.asarray(checks, dtype=np.intp),
        np.asarray(values, dtype=clean_out.dtype),
        n_trials=len(struck),
    )
    dense = compare_checksums_batch(
        lhs[None], dense_out, n_terms=64, magnitudes=magnitudes
    )
    return sparse, dense


def _assert_same_verdicts(sparse, dense):
    assert isinstance(sparse, VerdictColumns) and len(sparse) == len(dense)
    for s, d in zip(sparse, dense):
        assert s.detected == d.detected
        assert s.violations == d.violations
        assert s.checks == d.checks
        assert _same_float(s.max_residual, d.max_residual)
        assert _same_float(s.tolerance, d.tolerance)


class TestSparseVerdictColumns:
    """The struck-check walk renders the dense verdict without a
    precomputed clean order: the untouched maximum comes from the K+1
    largest clean keys, whichever ties they include."""

    #: Clean residuals with the argmax (index 1) tied at 3.0 with 2 and 4.
    CLEAN = np.array([0.5, 3.0, 3.0, 1.0, 3.0, 0.2, 0.0, 0.1], dtype=np.float32)

    @pytest.mark.parametrize("magnitudes", [1e9, 0.0])
    def test_striking_argmax_and_tied_checks(self, magnitudes):
        struck = [
            {1: 0.25},  # the clean argmax
            {1: 0.0, 2: 0.0},  # two of three tied maxima
            {1: 0.0, 2: 0.0, 4: 0.0},  # every tied maximum
            {1: 7.0},  # struck above the clean max
            {0: 0.5},  # unchanged value on a struck check
            {},  # untouched trial
            {6: float("inf"), 3: float("nan")},
            {c: 0.0 for c in range(8)},  # every check struck
        ]
        sparse, dense = _sparse_vs_dense(self.CLEAN, struck, magnitudes)
        _assert_same_verdicts(sparse, dense)
        assert sparse[0].max_residual == 3.0
        assert sparse[2].max_residual == 1.0

    @given(
        data=st.data(),
        n_checks=st.integers(1, 12),
        n_trials=st.integers(1, 6),
        magnitudes=st.sampled_from([1e9, 0.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_on_tied_residuals(self, data, n_checks, n_trials, magnitudes):
        levels = st.sampled_from([0.0, 1.0, 2.0, 2.0, 4.0])
        clean = np.asarray(
            data.draw(st.lists(levels, min_size=n_checks, max_size=n_checks)),
            dtype=np.float32,
        )
        fresh = st.sampled_from([0.0, 1.0, 2.0, 4.0, 9.0, float("inf"), float("nan")])
        struck = [
            data.draw(st.dictionaries(st.integers(0, n_checks - 1), fresh, max_size=n_checks))
            for _ in range(n_trials)
        ]
        _assert_same_verdicts(*_sparse_vs_dense(clean, struck, magnitudes))

    @given(data=st.data(), n_checks=st.integers(1, 12), n_trials=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_struck_sides_and_magnitudes_match_dense(self, data, n_checks, n_trials):
        """Entries carrying their own checksum side and magnitude bound
        (elementwise replication: ``max(|lhs|, |rhs|)``) render the
        dense verdict, including bounds below the clean maximum and NaN
        bounds."""
        levels = st.sampled_from([0.0, 1e3, 2e3, 2e3, 4e3, -3e3])
        clean = np.asarray(
            data.draw(st.lists(levels, min_size=n_checks, max_size=n_checks)),
            dtype=np.float32,
        )
        fresh = st.sampled_from(
            [0.0, 1e3, 2e3, 2000.001, -4e3, 9e3, math.inf, -math.inf, math.nan]
        )
        struck = [
            data.draw(
                st.dictionaries(
                    st.integers(0, n_checks - 1), st.tuples(fresh, fresh),
                    max_size=n_checks,
                )
            )
            for _ in range(n_trials)
        ]
        prepared = prepare_clean_comparison(
            clean, clean, n_terms=1, magnitudes=np.abs(clean)
        )
        lhs = np.tile(clean, (n_trials, 1))
        rhs = lhs.copy()
        trials, checks = [], []
        for t, hits in enumerate(struck):
            for c in sorted(hits):
                trials.append(t)
                checks.append(c)
                lhs[t, c], rhs[t, c] = hits[c]
        trials = np.asarray(trials, dtype=np.intp)
        checks = np.asarray(checks, dtype=np.intp)
        references, values = lhs[trials, checks], rhs[trials, checks]
        sparse = compare_checksums_sparse(
            prepared, trials, checks, values,
            n_trials=n_trials,
            references=references,
            magnitudes=np.maximum(np.abs(references), np.abs(values)),
        )
        dense = compare_checksums_batch(
            lhs, rhs, n_terms=1, magnitudes=np.maximum(np.abs(lhs), np.abs(rhs))
        )
        _assert_same_verdicts(sparse, dense)

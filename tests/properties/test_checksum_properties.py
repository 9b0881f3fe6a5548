"""Property-based tests (hypothesis) for ABFT invariants.

These pin the mathematical core of the paper: checksum identities hold
for arbitrary matrices, clean data never raises an alarm, and any
sufficiently large single-output corruption is always detected.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.abft import get_scheme
from repro.abft.checksums import (
    global_checksums,
    one_sided_checksums,
    one_sided_output_rowsums,
    output_summation,
    thread_tile_sums,
    two_sided_checksums,
)
from repro.faults import FaultKind, FaultSpec
from repro.gemm import GemmProblem, TileConfig, TiledGemm

TILE = TileConfig(mb=32, nb=32, kb=32, mw=16, nw=16, mt=4, nt=2)

dims = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _operands(m, n, k, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, k)) * scale).astype(np.float16)
    b = (rng.standard_normal((k, n)) * scale).astype(np.float16)
    return a, b


class TestChecksumIdentities:
    @given(m=dims, n=dims, k=dims, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_global_invariant(self, m, n, k, seed):
        a, b = _operands(m, n, k, seed)
        ex = TiledGemm(GemmProblem(m, n, k), TILE)
        (a_pad, _), (b_pad, _) = ex.pad_a(a), ex.pad_b(b)
        c = ex.multiply(a_pad, b_pad)
        chks = global_checksums(a_pad, b_pad)
        tol = 1e-3 * max(chks.magnitude, 1.0) * 2 ** -20 + 1e-3
        assert abs(chks.reference - output_summation(c)) < max(tol, 1e-2)

    @given(m=dims, n=dims, k=dims, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_one_sided_invariant(self, m, n, k, seed):
        a, b = _operands(m, n, k, seed)
        ex = TiledGemm(GemmProblem(m, n, k), TILE)
        (a_pad, _), (b_pad, _) = ex.pad_a(a), ex.pad_b(b)
        c = ex.multiply(a_pad, b_pad)
        chks = one_sided_checksums(ex, a_pad, b_pad)
        np.testing.assert_allclose(
            chks.reference, one_sided_output_rowsums(ex, c), rtol=1e-3, atol=1e-2
        )

    @given(m=dims, n=dims, k=dims, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_two_sided_invariant(self, m, n, k, seed):
        a, b = _operands(m, n, k, seed)
        ex = TiledGemm(GemmProblem(m, n, k), TILE)
        (a_pad, _), (b_pad, _) = ex.pad_a(a), ex.pad_b(b)
        c = ex.multiply(a_pad, b_pad)
        chks = two_sided_checksums(ex, a_pad, b_pad)
        np.testing.assert_allclose(
            chks.reference, thread_tile_sums(ex, c), rtol=1e-3, atol=1e-2
        )


class TestDetectionProperties:
    @given(m=dims, n=dims, k=dims, seed=seeds,
           scheme=st.sampled_from(["global", "thread_onesided", "thread_twosided",
                                   "replication_single"]))
    @settings(max_examples=30, deadline=None)
    def test_no_false_positives(self, m, n, k, seed, scheme):
        a, b = _operands(m, n, k, seed)
        assert not get_scheme(scheme).execute(a, b, tile=TILE).detected

    @given(m=st.integers(4, 40), n=st.integers(4, 40), k=st.integers(4, 40),
           seed=seeds, row=st.integers(0, 1000), col=st.integers(0, 1000),
           scheme=st.sampled_from(["global", "thread_onesided", "thread_twosided",
                                   "replication_single", "replication_traditional"]))
    @settings(max_examples=40, deadline=None)
    def test_large_fault_always_detected(self, m, n, k, seed, row, col, scheme):
        a, b = _operands(m, n, k, seed)
        # A corruption far above any rounding noise for these sizes.
        fault = FaultSpec(row=row % m, col=col % n, kind=FaultKind.ADD, value=500.0)
        outcome = get_scheme(scheme).execute(a, b, tile=TILE, faults=[fault])
        assert outcome.detected

    @given(m=st.integers(4, 32), n=st.integers(4, 32), k=st.integers(4, 32),
           seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_detection_is_sound_for_unprotected(self, m, n, k, seed):
        a, b = _operands(m, n, k, seed)
        fault = FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=500.0)
        assert not get_scheme("none").execute(a, b, tile=TILE, faults=[fault]).detected


class TestExecutorProperties:
    @given(m=dims, n=dims, k=dims, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_executor_matches_reference(self, m, n, k, seed):
        from repro.gemm import reference_gemm

        a, b = _operands(m, n, k, seed)
        ex = TiledGemm(GemmProblem(m, n, k), TILE)
        got = ex.crop(ex.run(a, b))
        np.testing.assert_allclose(got, reference_gemm(a, b), rtol=1e-4, atol=1e-3)

    @given(m=dims, n=dims, k=dims)
    @settings(max_examples=50, deadline=None)
    def test_padding_invariants(self, m, n, k):
        p = GemmProblem(m, n, k)
        assert p.m_pad % 8 == 0 and p.n_pad % 8 == 0 and p.k_pad % 8 == 0
        assert 0 <= p.m_pad - m < 8
        ex = TiledGemm(p, TILE)
        assert ex.m_full % TILE.mt == 0 and ex.n_full % TILE.nt == 0


class TestProblemProperties:
    @given(m=st.integers(1, 4096), n=st.integers(1, 4096), k=st.integers(1, 4096))
    @settings(max_examples=60, deadline=None)
    def test_intensity_positive_and_bounded(self, m, n, k):
        p = GemmProblem(m, n, k)
        ai = p.arithmetic_intensity()
        # AI = MNK/(MK+KN+MN) <= min(M,N,K) (padded dims).
        assert 0 < ai <= min(p.m_pad, p.n_pad, p.k_pad)

    @given(m=st.integers(1, 512), n=st.integers(1, 512), k=st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_padded_accounting_dominates_unpadded(self, m, n, k):
        p = GemmProblem(m, n, k)
        assert p.flops(padded=True) >= p.flops(padded=False)
        assert p.bytes_moved(padded=True) >= p.bytes_moved(padded=False)

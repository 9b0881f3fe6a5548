"""Tests for checksum mathematics (paper Figs. 1, 6, 7)."""

import numpy as np
import pytest

from repro.abft.checksums import (
    global_checksums,
    one_sided_checksums,
    one_sided_output_rowsums,
    output_summation,
    thread_tile_sums,
    two_sided_checksums,
    vandermonde_weights,
)
from repro.errors import ShapeError
from repro.gemm import GemmProblem, TiledGemm


@pytest.fixture
def setup(small_operands, small_tile):
    a, b = small_operands
    p = GemmProblem(a.shape[0], b.shape[1], a.shape[1])
    ex = TiledGemm(p, small_tile)
    (a_pad, _), (b_pad, _) = ex.pad_a(a), ex.pad_b(b)
    c = ex.multiply(a_pad, b_pad)
    return ex, a_pad, b_pad, c


class TestFig1ToyExample:
    def test_two_by_two_identity(self):
        # The paper's Fig. 1: (a00+a10)(b00+b01) + (a01+a11)(b10+b11)
        # equals the sum of all entries of C.
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float16)
        b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float16)
        chks = global_checksums(a, b)
        c = a.astype(np.float32) @ b.astype(np.float32)
        assert chks.reference == pytest.approx(c.sum())
        # Explicit expansion from the figure:
        assert chks.reference == pytest.approx((1 + 3) * (5 + 6) + (2 + 4) * (7 + 8))


class TestGlobalChecksums:
    def test_invariant_holds_on_clean_data(self, setup):
        ex, a_pad, b_pad, c = setup
        chks = global_checksums(a_pad, b_pad)
        assert chks.reference == pytest.approx(output_summation(c), rel=1e-5)

    def test_checksum_vector_shapes(self, setup):
        ex, a_pad, b_pad, _ = setup
        chks = global_checksums(a_pad, b_pad)
        assert chks.activation_checksum.shape == (ex.k_full,)
        assert chks.weight_checksum.shape == (ex.k_full,)

    def test_magnitude_bounds_reference(self, setup):
        ex, a_pad, b_pad, _ = setup
        chks = global_checksums(a_pad, b_pad)
        assert chks.magnitude >= abs(chks.reference)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            global_checksums(np.zeros((4, 3)), np.zeros((4, 3)))


class TestOneSided:
    def test_invariant_holds_per_row_and_tile(self, setup):
        ex, a_pad, b_pad, c = setup
        chks = one_sided_checksums(ex, a_pad, b_pad)
        rowsums = one_sided_output_rowsums(ex, c)
        np.testing.assert_allclose(chks.reference, rowsums, rtol=1e-4, atol=1e-3)

    def test_shapes(self, setup):
        ex, a_pad, b_pad, c = setup
        chks = one_sided_checksums(ex, a_pad, b_pad)
        assert chks.weight_checksums.shape == (ex.k_full, ex.n_tiles)
        assert chks.reference.shape == (ex.m_full, ex.n_tiles)
        assert one_sided_output_rowsums(ex, c).shape == (ex.m_full, ex.n_tiles)

    def test_detects_single_element_corruption_in_right_tile(self, setup):
        ex, a_pad, b_pad, c = setup
        chks = one_sided_checksums(ex, a_pad, b_pad)
        c_bad = c.copy()
        c_bad[5, 9] += 50.0
        rowsums = one_sided_output_rowsums(ex, c_bad)
        diff = np.abs(chks.reference - rowsums)
        # Exactly one (row, tile-column) check is violated.
        hits = np.argwhere(diff > 1.0)
        assert hits.shape == (1, 2)
        assert tuple(hits[0]) == (5, 9 // ex.tile.nt)


class TestTwoSided:
    def test_invariant_holds_per_tile(self, setup):
        ex, a_pad, b_pad, c = setup
        chks = two_sided_checksums(ex, a_pad, b_pad)
        np.testing.assert_allclose(
            chks.reference, thread_tile_sums(ex, c), rtol=1e-4, atol=1e-3
        )

    def test_shapes(self, setup):
        ex, a_pad, b_pad, c = setup
        chks = two_sided_checksums(ex, a_pad, b_pad)
        assert chks.reference.shape == (ex.m_tiles, ex.n_tiles)
        assert thread_tile_sums(ex, c).shape == (ex.m_tiles, ex.n_tiles)

    def test_corruption_localized_to_tile(self, setup):
        ex, a_pad, b_pad, c = setup
        chks = two_sided_checksums(ex, a_pad, b_pad)
        c_bad = c.copy()
        c_bad[7, 3] += 50.0
        diff = np.abs(chks.reference - thread_tile_sums(ex, c_bad))
        hits = np.argwhere(diff > 1.0)
        assert hits.shape == (1, 2)
        assert tuple(hits[0]) == (7 // ex.tile.mt, 3 // ex.tile.nt)


class TestVandermondeWeights:
    def test_shape_and_range(self):
        w = vandermonde_weights(16, 3)
        assert w.shape == (3, 16)
        assert np.all(np.abs(w) <= 1.0)
        assert np.all(w > 0)

    def test_rows_linearly_independent(self):
        w = vandermonde_weights(16, 4).astype(np.float64)
        assert np.linalg.matrix_rank(w) == 4

    def test_rejects_bad_args(self):
        with pytest.raises(ShapeError):
            vandermonde_weights(0, 2)

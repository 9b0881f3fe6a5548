"""Tests for the numeric tiled GEMM executor."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.gemm import executor
from repro.gemm import (
    GemmProblem,
    Int8TiledGemm,
    TileConfig,
    TiledGemm,
    reference_gemm,
)
from repro.gemm.mma import gemm_by_mma


@pytest.fixture
def tile():
    return TileConfig(mb=64, nb=32, kb=32, mw=32, nw=16, mt=4, nt=4)


class TestPadding:
    def test_operands_zero_padded(self, tile, rng):
        p = GemmProblem(10, 9, 11)
        ex = TiledGemm(p, tile)
        a = rng.standard_normal((10, 11)).astype(np.float16)
        a_pad, scale = ex.pad_a(a)
        assert scale == 1.0
        assert a_pad.shape == (ex.m_full, ex.k_full)
        np.testing.assert_array_equal(a_pad[:10, :11], a)
        assert np.all(a_pad[10:, :] == 0) and np.all(a_pad[:, 11:] == 0)

    def test_padded_dims_cover_thread_tiles(self, tile):
        ex = TiledGemm(GemmProblem(10, 9, 11), tile)
        assert ex.m_full % tile.mt == 0
        assert ex.n_full % tile.nt == 0
        assert ex.k_full % 8 == 0

    def test_rejects_wrong_operand_shapes(self, tile, rng):
        ex = TiledGemm(GemmProblem(10, 9, 11), tile)
        with pytest.raises(ShapeError):
            ex.pad_a(rng.standard_normal((11, 10)).astype(np.float16))
        with pytest.raises(ShapeError):
            ex.pad_b(rng.standard_normal((9, 11)).astype(np.float16))


class TestNumerics:
    def test_matches_reference_gemm(self, tile, small_operands):
        a, b = small_operands
        ex = TiledGemm(GemmProblem(a.shape[0], b.shape[1], a.shape[1]), tile)
        c = ex.crop(ex.run(a, b))
        ref = reference_gemm(a, b)
        np.testing.assert_allclose(c, ref, rtol=1e-5, atol=1e-4)

    def test_matches_mma_by_mma_semantics(self, tile, rng):
        # The vectorized chunked execution must agree with the scalar
        # MMA-by-MMA triple loop to within fp32 reassociation noise.
        a = (rng.standard_normal((32, 24)) * 0.25).astype(np.float16)
        b = (rng.standard_normal((24, 16)) * 0.25).astype(np.float16)
        ex = TiledGemm(GemmProblem(32, 16, 24), tile)
        c = ex.crop(ex.run(a, b))
        ref = gemm_by_mma(ex.pad_a(a)[0], ex.pad_b(b)[0])[:32, :16]
        np.testing.assert_allclose(c, ref, rtol=1e-6, atol=1e-6)


class TestRowSubsets:
    """``multiply`` takes any 1..m_full padded rows of A (the rows a
    propagation replay recomputes) and returns one accumulator row per
    A row — the full product's rows, byte for byte on this host."""

    @pytest.mark.parametrize("cls", [TiledGemm, Int8TiledGemm])
    def test_rows_alone_match_the_full_product(self, tile, rng, cls):
        ex = cls(GemmProblem(30, 24, 200), tile)
        a_pad, _ = ex.pad_a((rng.standard_normal((30, 200)) * 0.5).astype(np.float16))
        b_pad, _ = ex.pad_b((rng.standard_normal((200, 24)) * 0.5).astype(np.float16))
        full = ex.multiply(a_pad, b_pad)
        assert full.shape == (ex.m_full, ex.n_full)
        for rows in ([0], [29], [3, 17], list(range(0, 30, 3)), list(range(30))):
            part = ex.multiply(a_pad[rows], b_pad)
            assert part.shape == (len(rows), ex.n_full)
            assert part.tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("cls", [TiledGemm, Int8TiledGemm])
    def test_rejects_what_is_not_padded_rows(self, tile, cls):
        ex = cls(GemmProblem(10, 9, 11), tile)
        a_pad = np.zeros((ex.m_full, ex.k_full), dtype=ex.storage)
        b_pad = np.zeros((ex.k_full, ex.n_full), dtype=ex.storage)
        bad = [
            (a_pad[:0], b_pad),  # no row
            (np.zeros((ex.m_full + 1, ex.k_full), ex.storage), b_pad),
            (a_pad[:, :-1], b_pad),  # wrong column count
            (a_pad[0], b_pad),  # not a matrix
            (a_pad, b_pad[:, :-1]),  # wrong B
        ]
        for a, b in bad:
            with pytest.raises(ShapeError):
                ex.multiply(a, b)


def chunk_loop(ex, a_pad, b_pad):
    """The reference accumulation: one ``(r x 8) @ (8 x n_full)`` call
    per MMA K-chunk, added into the FP32 accumulator in chunk order."""
    a32 = a_pad.astype(np.float32)
    b32 = b_pad.astype(np.float32)
    acc = np.zeros((len(a_pad), ex.n_full), dtype=np.float32)
    with np.errstate(invalid="ignore", over="ignore"):
        for k0 in range(0, ex.k_full, 8):
            acc += a32[:, k0 : k0 + 8] @ b32[k0 : k0 + 8, :]
    return acc


class TestStackedChunks:
    """``multiply`` runs groups of K-chunks as one stacked matmul call;
    its accumulator is the per-chunk loop's, byte for byte."""

    # (k, n): one chunk; one group of several chunks; several groups at
    # a narrow n; and an n where 13 chunks fill the bound on one row
    # and one chunk is past it on all 16.
    SHAPES = [(8, 24), (200, 24), (3000, 24), (8, 5000), (200, 5000)]

    @pytest.mark.parametrize("k, n", SHAPES)
    def test_multiply_equals_the_per_chunk_loop(self, tile, rng, k, n):
        ex = TiledGemm(GemmProblem(13, n, k), tile)
        a = (rng.standard_normal((13, k)) * 0.5).astype(np.float16)
        b = (rng.standard_normal((k, n)) * 0.5).astype(np.float16)
        a[0, 0], a[1, k // 2], a[2, k - 1], a[12, 0] = -0.0, np.inf, -np.inf, np.nan
        b[0, 1], b[k // 2, 0], b[k - 1, n - 1] = np.nan, -0.0, np.inf
        a_pad, _ = ex.pad_a(a)
        b_pad, _ = ex.pad_b(b)
        for r in (1, 3, ex.m_full):
            rows = a_pad[:r]
            assert ex.multiply(rows, b_pad).tobytes() == chunk_loop(ex, rows, b_pad).tobytes()

    def test_the_shapes_cover_one_group_several_and_the_bound(self, tile):
        kinds = set()
        for k, n in self.SHAPES:
            ex = TiledGemm(GemmProblem(13, n, k), tile)
            for r in (1, 3, ex.m_full):
                group = executor.CHUNK_STACK_FLOATS // (r * ex.n_full)
                if group == 0:
                    kinds.add("past the bound")  # one chunk per call
                else:
                    kinds.add("one group" if group >= ex.k_full // 8 else "several")
        assert kinds == {"one group", "several", "past the bound"}


class TestThreadTileView:
    def test_view_shape(self, tile):
        ex = TiledGemm(GemmProblem(64, 32, 16), tile)
        c = np.zeros((ex.m_full, ex.n_full), dtype=np.float32)
        view = ex.thread_tile_view(c)
        assert view.shape == (ex.m_tiles, tile.mt, ex.n_tiles, tile.nt)

    def test_view_is_a_view(self, tile):
        ex = TiledGemm(GemmProblem(64, 32, 16), tile)
        c = np.zeros((ex.m_full, ex.n_full), dtype=np.float32)
        ex.thread_tile_view(c)[0, 1, 0, 2] = 7.0
        assert c[1, 2] == 7.0


class TestImmutability:
    """A cached prepared state's executor serves every outcome and
    replay drawn from it, so no execution may leave state on it."""

    @pytest.mark.parametrize("cls", [TiledGemm, Int8TiledGemm])
    def test_every_attribute_write_raises(self, tile, cls):
        ex = cls(GemmProblem(10, 9, 11), tile)
        for attr in ("problem", "tile", "m_full", "k_full", "a_scale", "b_scale"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ex, attr, 1.0)

    def test_int8_padding_returns_the_scale_and_stores_none(self, tile, rng):
        ex = Int8TiledGemm(GemmProblem(10, 9, 11), tile)
        before = vars(ex).copy()
        a = rng.standard_normal((10, 11)).astype(np.float16)
        a_pad, scale = ex.pad_a(a)
        assert scale == Int8TiledGemm.scale_for(a)
        assert a_pad.dtype == np.int8
        assert vars(ex) == before

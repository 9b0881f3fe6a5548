"""Tests for GemmProblem and the paper's FLOP/byte accounting."""

import dataclasses
import pickle

import pytest

from repro.errors import ShapeError
from repro.gemm import GemmProblem


class TestPadding:
    def test_pads_to_multiple_of_eight(self):
        p = GemmProblem(1, 1000, 13)
        assert (p.m_pad, p.n_pad, p.k_pad) == (8, 1000, 16)

    def test_already_aligned_untouched(self):
        p = GemmProblem(64, 128, 256)
        assert (p.m_pad, p.n_pad, p.k_pad) == (64, 128, 256)

    def test_rejects_non_positive_dims(self):
        with pytest.raises(ShapeError):
            GemmProblem(0, 4, 4)


class TestAccounting:
    def test_flops_definition(self):
        p = GemmProblem(16, 8, 8)
        assert p.flops() == 2 * 16 * 8 * 8

    def test_bytes_definition_fp16(self):
        p = GemmProblem(16, 8, 8)
        assert p.bytes_moved() == 2 * (16 * 8 + 8 * 8 + 16 * 8)

    def test_padded_vs_unpadded(self):
        p = GemmProblem(1, 512, 512)
        assert p.flops(padded=True) == 8 * p.flops(padded=False)

    def test_custom_dtype_bytes(self):
        p = GemmProblem(8, 8, 8)
        assert p.bytes_moved(dtype_bytes=4) == 2 * p.bytes_moved(dtype_bytes=2)

    def test_rejects_bad_dtype_bytes(self):
        with pytest.raises(ShapeError):
            GemmProblem(8, 8, 8).bytes_moved(dtype_bytes=0)


class TestArithmeticIntensity:
    def test_square_intensity_scales_with_size(self):
        # For FP16 square GEMMs AI = 2n^3 / (3*2*n^2) = n/3 (Fig. 12).
        for n in (32, 256, 2048):
            p = GemmProblem(n, n, n)
            assert p.arithmetic_intensity() == pytest.approx(n / 3.0)

    def test_fig12_labels(self):
        # Fig. 12 annotates sizes 32..2048 with AI 10.7 .. 682.7.
        assert GemmProblem(32, 32, 32).arithmetic_intensity() == pytest.approx(10.7, abs=0.05)
        assert GemmProblem(2048, 2048, 2048).arithmetic_intensity() == pytest.approx(682.7, abs=0.05)

    def test_batch_one_fc_unpadded_intensity_near_one(self):
        # Fig. 5's minimum: ResNet-50's FC layer at batch one has AI ~ 1.
        p = GemmProblem(1, 1000, 2048)
        assert p.arithmetic_intensity(padded=False) == pytest.approx(1.0, abs=0.01)

    def test_resnet_downsample_intensity_511(self):
        # Fig. 5's maximum: layer4.0.downsample on HD inputs has AI ~ 511.
        p = GemmProblem(2040, 2048, 1024)
        assert p.arithmetic_intensity(padded=False) == pytest.approx(511, abs=1.0)


class TestLabel:
    def test_with_label(self):
        p = GemmProblem(8, 8, 8).with_label("conv1")
        assert p.label == "conv1"
        assert "conv1" in str(p)


class TestStoredPadding:
    """The padded dims are stored fields that stay out of the identity."""

    def test_equality_and_hash_ignore_padding(self):
        p, q = GemmProblem(9, 17, 33, label="x"), GemmProblem(9, 17, 33, label="x")
        assert p == q and hash(p) == hash(q)
        assert hash(p) == hash((9, 17, 33, "x"))
        assert p != GemmProblem(9, 17, 33, label="y")

    def test_repr_unchanged(self):
        assert repr(GemmProblem(9, 17, 33, label="x")) == (
            "GemmProblem(m=9, n=17, k=33, label='x')"
        )

    def test_pickle_round_trip(self):
        p = GemmProblem(9, 17, 33, label="x")
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)
        assert (q.m_pad, q.n_pad, q.k_pad) == (16, 24, 40)

    def test_replace_recomputes_padding(self):
        p = dataclasses.replace(GemmProblem(9, 17, 33), m=100)
        assert p.m_pad == 104

    def test_padding_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            GemmProblem(9, 17, 33, m_pad=16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            GemmProblem(9, 17, 33).m_pad = 8

"""``run_batch``'s fused draw→sites fast path equals the stepped path.

``run_batch`` values each chunk's fault sites straight from the drawn
spec columns: when no trial of the chunk strikes one ``(row, col)``
twice, the chunk's :class:`~repro.faults.injector.FaultSites` come from
one :func:`corrupted_values_columns` call over the clean elements, with
no :class:`~repro.faults.FaultSpec` built; a chunk holding such a
duplicate alone takes the generic :func:`faulted_site_values` walk.
The records must be identical, record for record, to
``run(n, specs=draw_faults(n))`` — which itself pins the fused path
against the generic one, since explicit specs never take it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abft import MultiChecksumGlobalABFT, get_scheme
from repro.errors import FaultInjectionError
from repro.faults import FaultCampaign, SpecArrays
from repro.faults import campaign as campaign_module
from repro.faults.campaign import assemble_specs
from repro.faults.injector import (
    corrupted_values_batch,
    corrupted_values_columns,
    sites_from_flat_specs,
)


def make_campaign(name, operands, **kwargs):
    scheme = (
        MultiChecksumGlobalABFT(2) if name == "global_multi" else get_scheme(name)
    )
    a, b = operands
    return FaultCampaign(scheme, a, b, **kwargs)


def assert_records_identical(lhs, rhs):
    """Field-wise trial equality; NaN deltas compare equal to NaN."""
    assert len(lhs.trials) == len(rhs.trials)
    for t1, t2 in zip(lhs.trials, rhs.trials):
        assert t1.faults == t2.faults
        assert t1.detected == t2.detected
        assert t1.significant == t2.significant
        assert t1.benign_alarm == t2.benign_alarm
        if math.isnan(t1.delta) or math.isnan(t2.delta):
            assert math.isnan(t1.delta) and math.isnan(t2.delta)
        else:
            assert t1.delta == t2.delta


@pytest.fixture
def operands(rng):
    a = (rng.standard_normal((48, 32)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((32, 40)) * 0.5).astype(np.float16)
    return a, b


class TestFusedDrawEquivalence:
    @pytest.mark.parametrize(
        "scheme",
        [
            "global",
            "thread_onesided",
            "thread_twosided",
            "replication_single",
            "replication_traditional",
            "global_multi",
        ],
    )
    @pytest.mark.parametrize("faults_per_trial", [1, 3])
    def test_run_batch_equals_stepped_run(
        self, scheme, faults_per_trial, operands
    ):
        fused = make_campaign(scheme, operands, seed=23).run_batch(
            40, faults_per_trial=faults_per_trial
        )
        stepped_campaign = make_campaign(scheme, operands, seed=23)
        drawn = stepped_campaign.draw_faults(
            40, faults_per_trial=faults_per_trial
        )
        stepped = stepped_campaign.run(0, specs=drawn)
        assert_records_identical(fused, stepped)

    def test_chunked_batches_stay_identical(self, operands):
        fused = make_campaign(operands=operands, name="global", seed=9,
                              batch_size=7).run_batch(30, faults_per_trial=2)
        stepped_campaign = make_campaign(operands=operands, name="global",
                                         seed=9, batch_size=7)
        stepped = stepped_campaign.run(
            0, specs=stepped_campaign.draw_faults(30, faults_per_trial=2)
        )
        assert_records_identical(fused, stepped)

    def test_duplicate_sites_fall_back_to_generic_path(self, rng, monkeypatch):
        # A 2x4 fault domain with 4 faults per trial collides almost
        # surely; the colliding chunk must take the generic walk (the
        # stepped application order) and run_batch must still match
        # the stepped reference exactly.  Seed 0 draws a colliding
        # batch for these operands.
        a = (rng.standard_normal((2, 8)) * 0.5).astype(np.float16)
        b = (rng.standard_normal((8, 4)) * 0.5).astype(np.float16)
        generic = _count_calls(monkeypatch, "faulted_site_values")
        fused = FaultCampaign(get_scheme("global"), a, b, seed=0).run_batch(
            16, faults_per_trial=4
        )
        assert generic.calls == 1
        stepped_campaign = FaultCampaign(get_scheme("global"), a, b, seed=0)
        stepped = stepped_campaign.run(
            0, specs=stepped_campaign.draw_faults(16, faults_per_trial=4)
        )
        assert_records_identical(fused, stepped)

    def test_only_the_colliding_chunk_takes_the_generic_path(
        self, operands, monkeypatch
    ):
        """One duplicate site must not send the whole batch down the
        per-spec walk: seed 14 draws 40 four-fault trials whose only
        repeated site is trial 38's, in the last of four chunks."""
        def campaign():
            return make_campaign("global", operands, seed=14, batch_size=10)

        drawn = campaign().draw_faults(40, faults_per_trial=4)
        repeats = [i for i, t in enumerate(drawn) if len({(f.row, f.col) for f in t}) < 4]
        assert repeats == [38]
        generic = _count_calls(monkeypatch, "faulted_site_values")
        fused = campaign().run_batch(40, faults_per_trial=4)
        assert generic.calls == 1
        stepped_campaign = campaign()
        stepped = stepped_campaign.run(
            0, specs=stepped_campaign.draw_faults(40, faults_per_trial=4)
        )
        assert_records_identical(fused, stepped)


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _count_calls(monkeypatch, name):
    counter = _Counter(getattr(campaign_module, name))
    monkeypatch.setattr(campaign_module, name, counter)
    return counter


def _arrays(rows, cols, codes=(2,), values=(1.0,), bits=(0,)):
    return SpecArrays(
        rows=np.asarray(rows),
        cols=np.asarray(cols),
        kind_codes=np.asarray(codes, dtype=np.uint8),
        values=np.asarray(values, dtype=np.float64),
        bits=np.asarray(bits),
    )


class TestSitesFromFlatSpecs:
    def test_validates_array_lengths(self, operands):
        campaign = make_campaign("global", operands, seed=1)
        c_clean = campaign._prepared.c_clean
        with pytest.raises(FaultInjectionError, match="mismatched"):
            sites_from_flat_specs(c_clean, np.array([0, 1]), _arrays([0], [0]), 2)

    def test_bounds_checks_coordinates(self, operands):
        campaign = make_campaign("global", operands, seed=1)
        c_clean = campaign._prepared.c_clean
        with pytest.raises(FaultInjectionError, match="outside"):
            sites_from_flat_specs(
                c_clean, np.array([0]), _arrays([c_clean.shape[0] + 5], [0]), 1
            )


class TestColumnCorruption:
    @given(
        data=st.data(),
        integer=st.booleans(),
        n=st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=120, deadline=None)
    def test_columns_match_assembled_specs(self, data, integer, n):
        """Column corruption == corrupted_values_batch on the specs
        assemble_specs builds, for FP32 and INT32 accumulators."""
        if integer:
            clean = st.integers(min_value=-(2**31), max_value=2**31 - 1)
            dtype = np.int32
        else:
            clean = st.floats(width=32, allow_nan=True, allow_infinity=True)
            dtype = np.float32
        values = np.asarray(data.draw(st.lists(clean, min_size=n, max_size=n)), dtype=dtype)
        magnitude = st.sampled_from([1e-3, 1.0, 1e4, 1e12, 1e30])
        deltas = [
            data.draw(st.floats(-1.0, 1.0, allow_nan=False)) * data.draw(magnitude)
            for _ in range(n)
        ]
        arrays = _arrays(
            rows=np.zeros(n, dtype=np.int64),
            cols=np.zeros(n, dtype=np.int64),
            codes=data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
            values=deltas,
            bits=data.draw(st.lists(st.integers(0, 31), min_size=n, max_size=n)),
        )
        expected = corrupted_values_batch(values, assemble_specs(arrays))
        got = corrupted_values_columns(values, arrays)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

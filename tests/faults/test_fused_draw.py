"""``run_batch`` on drawn columns equals ``run`` on the drawn tuples.

A random run never builds a :class:`~repro.faults.FaultSpec`: the draw
lands in a :class:`~repro.faults.SpecArrays` batch whose chunks are
valued from their columns (:func:`faulted_site_values`, repeated sites
applied in spec order by :func:`keyed_corruption`).  An explicit run
converts the caller's tuples to the same batch form.  The records must
be identical, record for record, to ``run(n, specs=draw_faults(n))``,
and the keyed corruption must equal :func:`corrupted_element` applied
per key in spec order.
"""

import math
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abft import MultiChecksumGlobalABFT, get_scheme, scheme_from_token
from repro.errors import FaultInjectionError
from repro.faults import FaultCampaign, FaultKind, FaultPath, FaultSpec, SpecArrays
from repro.faults.injector import (
    corrupted_element,
    faulted_site_values,
    keyed_corruption,
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

    def test_duplicate_sites_match_stepped_run(self, rng):
        # A 2x4 fault domain with 4 faults per trial collides almost
        # surely; repeated sites must take the stepped application
        # order and run_batch must match the stepped reference exactly.
        a = (rng.standard_normal((2, 8)) * 0.5).astype(np.float16)
        b = (rng.standard_normal((8, 4)) * 0.5).astype(np.float16)
        fused = FaultCampaign(get_scheme("global"), a, b, seed=0).run_batch(
            16, faults_per_trial=4
        )
        stepped_campaign = FaultCampaign(get_scheme("global"), a, b, seed=0)
        stepped = stepped_campaign.run(
            0, specs=stepped_campaign.draw_faults(16, faults_per_trial=4)
        )
        assert_records_identical(fused, stepped)

    def test_colliding_chunk_matches_stepped_run(self, operands):
        """Seed 14 draws 40 four-fault trials whose only repeated site
        is trial 38's, in the last of four chunks."""
        def campaign():
            return make_campaign("global", operands, seed=14, batch_size=10)

        drawn = campaign().draw_faults(40, faults_per_trial=4)
        repeats = [i for i, t in enumerate(drawn) if len({(f.row, f.col) for f in t}) < 4]
        assert repeats == [38]
        fused = campaign().run_batch(40, faults_per_trial=4)
        stepped_campaign = campaign()
        stepped = stepped_campaign.run(
            0, specs=stepped_campaign.draw_faults(40, faults_per_trial=4)
        )
        assert_records_identical(fused, stepped)


class TestSiteValuation:
    def test_bounds_checks_coordinates(self, operands):
        campaign = make_campaign("global", operands, seed=1)
        c_clean = campaign._prepared.c_clean
        for path in FaultPath:
            batch = SpecArrays.from_trials(
                [(FaultSpec(c_clean.shape[0] + 5, 0, path=path),)]
            )
            with pytest.raises(FaultInjectionError, match="outside"):
                faulted_site_values(c_clean, batch)

    @pytest.mark.parametrize(
        "token",
        ["global", "thread_onesided", "global_multi:2", "replication_traditional",
         "thread_twosided@int8", "replication_traditional@int8"],
    )
    def test_inject_batch_reads_no_spec_given_sites(self, token, operands):
        """With precomputed sites, inject_batch renders every verdict
        without indexing the trial sequence once."""
        prepared = scheme_from_token(token).prepare(*operands)
        ck = FaultPath.CHECKSUM
        trials = [
            (FaultSpec(3, 5, FaultKind.ADD, value=40.0, path=ck),),
            (FaultSpec(2, 3, FaultKind.ADD, value=25.0),
             FaultSpec(9, 4, FaultKind.BITFLIP_FP32, bit=27, path=ck),
             FaultSpec(9, 4, FaultKind.ADD, value=-7.0, path=ck)),
            (FaultSpec(4, 4, FaultKind.SET, value=7.0),
             FaultSpec(4, 4, FaultKind.ADD, value=100.0)),
            (),
            (FaultSpec(6, 7, FaultKind.BITFLIP_FP16, bit=12),),
        ]
        sites = faulted_site_values(prepared.c_clean, SpecArrays.from_trials(trials))
        rendered = prepared.inject_batch(_Unreadable(len(trials)), sites=sites)
        assert list(rendered.verdicts) == list(prepared.inject_batch(trials).verdicts)


class _Unreadable(Sequence):
    """A trial sequence of known length whose trials cannot be read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        raise AssertionError(f"trial {i} was read")


_ELEMENTS = {
    np.float64: st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    np.float32: st.floats(width=32, allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    np.int32: st.integers(min_value=-(2**31), max_value=2**31 - 1),
}


@st.composite
def _spec(draw, integer):
    kind = draw(st.sampled_from(list(FaultKind)))
    bit = draw(st.integers(0, 15 if kind is FaultKind.BITFLIP_FP16 else 31))
    value = draw(st.floats(-1.0, 1.0)) * draw(st.sampled_from([1e-3, 1.0, 1e4, 1e12, 1e30]))
    if not integer:
        value = draw(st.sampled_from([value, math.inf, -math.inf, math.nan, -0.0]))
    return FaultSpec(0, 0, kind, bit, value)


def _assert_same_values(got, want):
    """Bit-equal, except that any NaN matches any NaN (payloads aside)."""
    assert got.dtype == want.dtype
    if np.issubdtype(got.dtype, np.floating):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        got, want = got[~nan], want[~nan]
    assert got.tobytes() == want.tobytes()


class TestKeyedCorruption:
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.float64, np.float32, np.int32]),
        n_keys=st.integers(1, 4),
        n=st.integers(0, 24),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_corrupted_element_in_spec_order(self, data, dtype, n_keys, n):
        """Keyed in-order corruption == corrupted_element per key in
        spec order, keys kept in first-occurrence order, for float64,
        float32 and int32 elements, repeated keys and all four kinds."""
        integer = dtype is np.int32
        elements = np.asarray(
            data.draw(st.lists(_ELEMENTS[dtype], min_size=n_keys, max_size=n_keys)),
            dtype=dtype,
        )
        keys = np.asarray(
            data.draw(st.lists(st.integers(0, n_keys - 1), min_size=n, max_size=n)),
            dtype=np.intp,
        )
        specs = [data.draw(_spec(integer)) for _ in range(n)]
        batch = SpecArrays.from_trials([specs])
        first, final = keyed_corruption(
            keys, elements[keys], batch.kind_codes, batch.bits, batch.values
        )
        expected = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for key, spec in zip(keys.tolist(), specs):
                expected[key] = corrupted_element(expected.get(key, elements[key]), spec)
        assert keys[first].tolist() == list(expected)
        _assert_same_values(final, np.asarray(list(expected.values()), dtype=dtype))

"""Tests for fault-injection campaigns."""

import numpy as np
import pytest

from repro.abft import MultiChecksumGlobalABFT, get_scheme
from repro.errors import FaultInjectionError
from repro.faults import FaultCampaign, FaultKind, FaultPath, FaultSpec


@pytest.fixture
def operands(rng):
    a = (rng.standard_normal((48, 32)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((32, 40)) * 0.5).astype(np.float16)
    return a, b


class TestCampaign:
    def test_rejects_unprotected_scheme(self, operands):
        a, b = operands
        with pytest.raises(FaultInjectionError):
            FaultCampaign(get_scheme("none"), a, b)

    @pytest.mark.parametrize(
        "scheme", ["global", "thread_onesided", "thread_twosided",
                   "replication_single", "replication_traditional"]
    )
    def test_full_coverage_of_significant_faults(self, scheme, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme(scheme), a, b, seed=7)
        result = campaign.run(50)
        assert result.n_trials == 50
        assert result.coverage == 1.0
        assert not result.false_negatives

    def test_deterministic_given_seed(self, operands):
        a, b = operands
        r1 = FaultCampaign(get_scheme("global"), a, b, seed=11).run(20)
        r2 = FaultCampaign(get_scheme("global"), a, b, seed=11).run(20)
        assert [t.spec for t in r1.trials] == [t.spec for t in r2.trials]
        assert [t.detected for t in r1.trials] == [t.detected for t in r2.trials]

    def test_explicit_specs_run_exactly(self, operands):
        a, b = operands
        specs = [
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0),
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=100.0),
        ]
        result = FaultCampaign(get_scheme("global"), a, b).run(0, specs=specs)
        assert result.n_trials == 2
        assert all(t.detected for t in result.trials)

    def test_n_trials_matching_specs_accepted(self, operands):
        a, b = operands
        specs = [FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0)]
        result = FaultCampaign(get_scheme("global"), a, b).run(1, specs=specs)
        assert result.n_trials == 1

    def test_n_trials_disagreeing_with_specs_rejected(self, operands):
        """run() must not silently ignore n_trials when specs is given."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        specs = [
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0),
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=100.0),
        ]
        with pytest.raises(FaultInjectionError):
            campaign.run(5, specs=specs)
        with pytest.raises(FaultInjectionError):
            campaign.run(-1)

    def test_run_batch_matches_run_semantics(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b, seed=13)
        result = campaign.run_batch(30)
        assert result.n_trials == 30
        assert result.coverage == 1.0
        # Deterministic given the seed.
        again = FaultCampaign(get_scheme("global"), a, b, seed=13).run_batch(30)
        assert [t.spec for t in result.trials] == [t.spec for t in again.trials]
        assert [t.detected for t in result.trials] == [
            t.detected for t in again.trials
        ]

    @pytest.mark.parametrize(
        "scheme", ["global", "thread_onesided", "thread_twosided",
                   "replication_single", "replication_traditional"]
    )
    def test_run_batch_full_coverage(self, scheme, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme(scheme), a, b, seed=7)
        result = campaign.run_batch(50)
        assert result.coverage == 1.0
        assert not result.false_negatives

    def test_run_and_draw_faults_share_site_domain(self, operands):
        """Random runs and draw_faults must draw fault sites from the
        same source — the prepared clean accumulator's padded grid."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b, seed=3)
        assert campaign.fault_domain == campaign._prepared.c_clean.shape
        rows, cols = campaign.fault_domain
        singles = [t.spec for t in campaign.run(300).trials]
        drawn = campaign.draw_faults(300)
        for spec in singles + drawn:
            assert 0 <= spec.row < rows and 0 <= spec.col < cols
        # Both generators reach the full padded grid, not just the
        # logical corner (the padded rows/cols are legal fault sites).
        for specs in (singles, drawn):
            assert max(s.row for s in specs) >= rows - 8
            assert max(s.col for s in specs) >= cols - 8

    def test_run_matches_per_trial_records(self, operands):
        """The chunked batched path must reproduce run_trial records."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("thread_onesided"), a, b, seed=21,
                                 batch_size=7)
        specs = campaign.draw_faults(23)
        batched = campaign.run(0, specs=specs).trials
        for spec, record in zip(specs, batched):
            single = campaign.run_trial(spec)
            assert single.spec == record.spec
            assert single.detected == record.detected
            assert single.significant == record.significant
            assert (single.delta == record.delta) or (
                np.isnan(single.delta) and np.isnan(record.delta)
            )

    def test_scratch_reuse_does_not_corrupt_records(self, operands):
        """Chunks share one scratch buffer; records must be extracted
        before the next chunk overwrites it."""
        a, b = operands
        one_chunk = FaultCampaign(get_scheme("global"), a, b, seed=5,
                                  batch_size=1000).run_batch(40)
        many_chunks = FaultCampaign(get_scheme("global"), a, b, seed=5,
                                    batch_size=3).run_batch(40)
        assert [t.spec for t in one_chunk.trials] == [
            t.spec for t in many_chunks.trials
        ]
        assert [t.detected for t in one_chunk.trials] == [
            t.detected for t in many_chunks.trials
        ]

    def test_significance_classification(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("thread_onesided"), a, b)
        big = campaign.run_trial(FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0))
        tiny = campaign.run_trial(FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=1e-7))
        assert big.significant and big.detected
        assert not tiny.significant

    def test_thread_level_more_sensitive_than_global(self, operands):
        """The numerical sensitivity hierarchy: per-tile checks resolve
        smaller corruptions than the whole-output scalar check."""
        a, b = operands
        thread = FaultCampaign(get_scheme("thread_onesided"), a, b)
        global_ = FaultCampaign(get_scheme("global"), a, b)
        assert thread._tolerance_scale < global_._tolerance_scale

    def test_coverage_is_one_when_no_significant_faults(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        result = campaign.run(0, specs=[
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=1e-9)
        ])
        assert result.n_significant == 0
        assert result.coverage == 1.0

    def test_tolerance_scale_is_public(self, operands):
        """The sensitivity floor is part of the campaign's public API."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        assert campaign.tolerance_scale > 0.0
        assert campaign.tolerance_scale == campaign._tolerance_scale


class TestBenignAlarms:
    """Checksum-path faults are benign false alarms, never significant."""

    def test_checksum_path_trial_not_counted_significant(self, operands):
        """The §2.3 fault model: a checksum-path fault corrupts the
        redundant computation, not the output — it must land in the
        benign-alarm tally, not the coverage denominator."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        spec = FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0,
                         path=FaultPath.CHECKSUM)
        record = campaign.run_trial(spec)
        assert record.detected
        assert not record.significant
        assert record.benign_alarm
        assert np.isnan(record.delta)

        result = campaign.run(0, specs=[spec])
        assert result.n_significant == 0
        assert result.n_benign_alarms == 1
        assert result.coverage == 1.0
        assert not result.false_negatives

    def test_record_and_records_batch_agree_on_checksum_faults(self, operands):
        """Batched and per-trial classification must stay record-for-
        record identical on the path that used to misclassify."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("thread_twosided"), a, b)
        specs = [
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=50.0,
                      path=FaultPath.CHECKSUM),
            FaultSpec(row=3, col=3, kind=FaultKind.ADD, value=50.0),
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=1e-8,
                      path=FaultPath.CHECKSUM),
        ]
        batched = campaign.run(0, specs=specs).trials
        for spec, record in zip(specs, batched):
            single = campaign.run_trial(spec)
            assert single.faults == record.faults
            assert single.detected == record.detected
            assert single.significant == record.significant
            assert single.benign_alarm == record.benign_alarm
            assert (single.delta == record.delta) or (
                np.isnan(single.delta) and np.isnan(record.delta)
            )

    def test_undetected_subthreshold_original_fault_is_not_benign_alarm(
        self, operands
    ):
        """The flag is reserved for checksum-path alarms: original-path
        trials never carry it, detected or not."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("thread_onesided"), a, b)
        record = campaign.run_trial(
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=0.5)
        )
        assert not record.benign_alarm

    def test_mixed_trial_with_significant_fault_stays_significant(
        self, operands
    ):
        """A checksum-path fault riding along a significant original
        fault must not demote the trial to a benign alarm."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        record = campaign.run_trial((
            FaultSpec(row=2, col=2, kind=FaultKind.ADD, value=200.0),
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=50.0,
                      path=FaultPath.CHECKSUM),
        ))
        assert record.significant
        assert not record.benign_alarm
        assert record.delta == pytest.approx(200.0, rel=1e-3)

    def test_mixed_detected_insignificant_trial_is_not_benign_alarm(
        self, operands
    ):
        """With both paths struck the alarm's cause is ambiguous — the
        flag is reserved for checksum-path-only trials, where no output
        corruption exists that could explain the detection."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("thread_onesided"), a, b)
        # An original-path delta of 3x the tolerance scale is always in
        # the detectable-but-insignificant window: the struck check's
        # residual moves by the delta (>= 2x its tolerance even against
        # a worst-case clean residual), while significance demands 4x.
        # The checksum fault alone would also alarm, so attribution is
        # ambiguous and neither may claim the flag.
        record = campaign.run_trial((
            FaultSpec(row=0, col=0, kind=FaultKind.ADD,
                      value=3.0 * campaign.tolerance_scale),
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=50.0,
                      path=FaultPath.CHECKSUM),
        ))
        assert record.detected
        assert not record.significant
        assert not record.benign_alarm


class TestMultiFaultTrials:
    """Per-trial fault sets: the §2.4 multi-fault campaign mode."""

    def test_run_batch_with_faults_per_trial(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b, seed=19)
        result = campaign.run_batch(30, faults_per_trial=3)
        assert result.n_trials == 30
        assert all(t.n_faults == 3 for t in result.trials)
        # A single global check guarantees nothing beyond one fault —
        # partial cancellation across a trial's sites is expected (the
        # very gap §2.4's r-checksum extension closes), so coverage may
        # legitimately dip below 1.0 here.
        assert 0.0 < result.coverage <= 1.0
        # Deterministic given the seed.
        again = FaultCampaign(get_scheme("global"), a, b, seed=19).run_batch(
            30, faults_per_trial=3
        )
        assert [t.faults for t in result.trials] == [
            t.faults for t in again.trials
        ]

    def test_draw_faults_grouping(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b, seed=2)
        singles = campaign.draw_faults(10)
        assert all(isinstance(s, FaultSpec) for s in singles)
        trials = FaultCampaign(get_scheme("global"), a, b, seed=2).draw_faults(
            10, faults_per_trial=4
        )
        assert len(trials) == 10
        assert all(isinstance(t, tuple) and len(t) == 4 for t in trials)
        # Same RNG stream: the grouped draw is the flat draw, chunked.
        flat = FaultCampaign(get_scheme("global"), a, b, seed=2).draw_faults(40)
        assert [spec for trial in trials for spec in trial] == flat

    @pytest.mark.parametrize(
        "scheme", ["global", "thread_onesided", "thread_twosided",
                   "replication_single"]
    )
    def test_multi_fault_records_match_per_trial_classification(
        self, scheme, operands
    ):
        """The chunked batched path must reproduce run_trial records on
        arbitrary fault sets (both execution paths, small chunks)."""
        a, b = operands
        campaign = FaultCampaign(get_scheme(scheme), a, b, seed=23,
                                 batch_size=5)
        trials = campaign.draw_faults(17, faults_per_trial=3)
        batched = campaign.run(0, specs=trials).trials
        for faults, record in zip(trials, batched):
            single = campaign.run_trial(faults)
            assert single.faults == record.faults
            assert single.detected == record.detected
            assert single.significant == record.significant
            assert single.benign_alarm == record.benign_alarm
            assert (single.delta == record.delta) or (
                np.isnan(single.delta) and np.isnan(record.delta)
            )

    def test_multi_checksum_scheme_covers_fault_sets_within_r(self, operands):
        """global_multi with r checksums must detect every significant
        trial of up to r simultaneous faults (paper §2.4)."""
        a, b = operands
        campaign = FaultCampaign(MultiChecksumGlobalABFT(4), a, b, seed=31)
        for faults_per_trial in (1, 2, 4):
            result = campaign.run_batch(40, faults_per_trial=faults_per_trial)
            assert result.coverage == 1.0, (
                f"missed significant trials at {faults_per_trial} faults"
            )

    def test_by_fault_count_grouping(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b, seed=5)
        mixed = campaign.draw_faults(8) + campaign.draw_faults(
            6, faults_per_trial=2
        )
        result = campaign.run(0, specs=mixed)
        groups = result.by_fault_count()
        assert list(groups) == [1, 2]
        assert groups[1].n_trials == 8 and groups[2].n_trials == 6
        assert sum(g.n_trials for g in groups.values()) == result.n_trials
        assert result.coverage_by_fault_count() == {
            k: g.coverage for k, g in groups.items()
        }

    def test_delta_is_largest_magnitude_site_delta(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        record = campaign.run_trial((
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=30.0),
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=-90.0),
        ))
        assert record.delta == pytest.approx(-90.0, rel=1e-3)
        assert record.significant

    def test_spec_accessor_requires_single_fault(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        single = campaign.run_trial(
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0)
        )
        assert single.spec == single.faults[0]
        multi = campaign.run_trial((
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0),
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=100.0),
        ))
        with pytest.raises(FaultInjectionError):
            multi.spec

    def test_argument_validation(self, operands):
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        with pytest.raises(FaultInjectionError):
            campaign.draw_faults(5, faults_per_trial=0)
        with pytest.raises(FaultInjectionError):
            campaign.run(5, faults_per_trial=0)
        with pytest.raises(FaultInjectionError):
            campaign.run(
                0,
                specs=[FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=1.0)],
                faults_per_trial=2,
            )

    def test_explicit_specs_accept_mixed_shapes(self, operands):
        """run() normalizes bare specs and fault-set sequences alike."""
        a, b = operands
        campaign = FaultCampaign(get_scheme("global"), a, b)
        bare = FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0)
        pair = (
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=100.0),
            FaultSpec(row=2, col=2, kind=FaultKind.ADD, value=100.0),
        )
        result = campaign.run(0, specs=[bare, pair, [bare]])
        assert [t.faults for t in result.trials] == [
            (bare,), pair, (bare,)
        ]
        assert all(t.detected for t in result.trials)

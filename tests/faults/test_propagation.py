"""End-to-end SDC propagation campaigns (DESIGN.md §3).

Covers the detection × corruption taxonomy, the masked-trial
short-circuit, recovery accounting (transient, sticky flag-and-
propagate, sticky raise), the built-in bit-identity verification of
recovered trials, and the session surface.
"""

import numpy as np
import pytest

from repro.api import deploy
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    RecoveryError,
)
from repro.faults import (
    FaultKind,
    FaultPath,
    FaultSpec,
    PropagationOutcome,
    RecoveryPolicy,
)
from repro.nn import build_model, build_runnable, runnable_input_shape

MODEL = "mlp_bottom"
LAYER = "fc0"

BIG = FaultSpec(row=0, col=0, kind=FaultKind.SET, value=1e4)
NOOP = FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=0.0)
CHECKSUM_BIG = FaultSpec(
    row=0, col=0, kind=FaultKind.SET, value=1e4, path=FaultPath.CHECKSUM
)


def make_session(policy="global", **kwargs):
    return deploy(
        build_model(MODEL, batch=1),
        "T4",
        policy=policy,
        runnable=build_runnable(MODEL, batch=1, seed=0),
        **kwargs,
    )


@pytest.fixture
def x():
    shape = runnable_input_shape(MODEL, batch=1)
    return (np.random.default_rng(5).standard_normal(shape) * 0.5).astype(
        np.float16
    )


@pytest.fixture
def session():
    return make_session()


class TestTaxonomy:
    def test_big_fault_is_detected_under_global(self, session, x):
        result = session.propagation_campaign(LAYER, x=x).run(0, specs=[BIG])
        (record,) = result.records
        assert record.outcome is PropagationOutcome.DETECTED
        assert record.detected and record.output_corrupted
        assert record.divergence > 0

    def test_sub_tolerance_faults_become_undetected_sdc(self, session, x):
        # With zero output tolerance, any fault the ABFT check absorbs
        # but the output does not is silent data corruption; seed 0
        # deterministically draws one such trial for this GEMM.
        result = session.propagation_campaign(
            LAYER, x=x, seed=0, output_rtol=0.0, output_atol=0.0
        ).run_batch(48)
        sdc = [
            r for r in result.records
            if r.outcome is PropagationOutcome.UNDETECTED_SDC
        ]
        assert len(sdc) == 1
        (record,) = sdc
        assert not record.detected and record.output_corrupted
        assert record.residual_sdc
        assert result.undetected_sdc_rate == 1 / 48
        # With no recovery policy, detected corruption is residual too.
        assert result.n_residual_sdc == result.n_undetected_sdc + result.count(
            PropagationOutcome.DETECTED
        )

    def test_noop_fault_is_masked(self, session, x):
        result = session.propagation_campaign(LAYER, x=x).run(0, specs=[NOOP])
        (record,) = result.records
        assert record.outcome is PropagationOutcome.MASKED
        assert record.divergence == 0.0 and not record.top1_flip

    def test_checksum_fault_is_benign_alarm(self, session, x):
        result = session.propagation_campaign(LAYER, x=x).run(
            0, specs=[CHECKSUM_BIG]
        )
        (record,) = result.records
        assert record.outcome is PropagationOutcome.BENIGN_ALARM
        assert record.detected and not record.output_corrupted

    def test_crosstab_partitions_all_trials(self, session, x):
        result = session.propagation_campaign(LAYER, x=x, seed=3).run_batch(
            24, faults_per_trial=2
        )
        crosstab = result.crosstab()
        assert set(crosstab) == {
            (False, False), (False, True), (True, False), (True, True),
        }
        assert sum(crosstab.values()) == result.n_trials == 24
        for record in result.records:
            assert crosstab[(record.detected, record.output_corrupted)] > 0

    def test_outcome_flags_are_consistent(self, session, x):
        result = session.propagation_campaign(LAYER, x=x, seed=9).run_batch(32)
        expected = {
            (False, False): PropagationOutcome.MASKED,
            (True, False): PropagationOutcome.BENIGN_ALARM,
            (True, True): PropagationOutcome.DETECTED,
            (False, True): PropagationOutcome.UNDETECTED_SDC,
        }
        for record in result.records:
            key = (record.detected, record.output_corrupted)
            assert record.outcome is expected[key]


class TestRecovery:
    def test_transient_recovers_every_detection(self, session, x):
        campaign = session.propagation_campaign(
            LAYER, x=x, seed=11, recovery=RecoveryPolicy()
        )
        result = campaign.run_batch(24)
        assert result.n_detected > 0
        # Transient retries run fault-free: recovery is deterministic,
        # and the campaign's verify_recovery pass (on by default) has
        # already asserted bit-identity to the clean trace end to end.
        assert result.n_recovered == result.n_detected
        assert result.n_degraded == 0
        assert result.total_retries >= result.n_detected
        assert result.n_residual_sdc == result.n_undetected_sdc

    def test_sticky_flag_and_propagate_degrades(self, session, x):
        policy = RecoveryPolicy(max_retries=2, fault_model="sticky")
        result = session.propagation_campaign(
            LAYER, x=x, recovery=policy
        ).run(0, specs=[BIG])
        (record,) = result.records
        assert record.degraded and not record.recovered
        assert record.retries == 2
        assert record.residual_sdc
        assert result.n_residual_sdc == 1

    def test_sticky_raise_aborts(self, session, x):
        policy = RecoveryPolicy(
            max_retries=1, fault_model="sticky", on_exhausted="raise"
        )
        campaign = session.propagation_campaign(LAYER, x=x, recovery=policy)
        with pytest.raises(RecoveryError):
            campaign.run(0, specs=[BIG])

    def test_no_policy_means_no_retries(self, session, x):
        result = session.propagation_campaign(LAYER, x=x).run(0, specs=[BIG])
        (record,) = result.records
        assert record.retries == 0
        assert not record.recovered and not record.degraded
        assert record.residual_sdc  # detected but nothing recovered it


class TestSessionSurface:
    def test_requires_numeric_realization(self, x):
        session = deploy(build_model(MODEL, batch=1), "T4")
        with pytest.raises(ConfigurationError, match="numeric"):
            session.propagation_campaign(LAYER, x=x)

    def test_rejects_unknown_layer(self, session, x):
        with pytest.raises(ConfigurationError, match="no layer"):
            session.propagation_campaign("nope", x=x)

    def test_downstream_ops_cover_the_tail(self, session, x):
        campaign = session.propagation_campaign(LAYER, x=x)
        # mlp_bottom is fc0 -> ReLU -> fc1 -> ReLU -> fc2: striking fc0
        # leaves two ReLUs and two protected linears downstream.
        assert campaign.downstream_ops == ["ReLU", "fc1", "ReLU", "fc2"]

    def test_last_layer_has_no_downstream(self, session, x):
        campaign = session.propagation_campaign("fc2", x=x)
        assert campaign.downstream_ops == []

    def test_masked_output_is_clean_output(self, session, x):
        clean = session.run(x).output
        campaign = session.propagation_campaign(LAYER, x=x)
        result = campaign.run(0, specs=[NOOP])
        assert result.records[0].outcome is PropagationOutcome.MASKED
        # The struck-GEMM injection round-tripped to the clean value,
        # so the campaign never replayed downstream — by contract the
        # model output is exactly the clean one (divergence 0.0).
        assert result.records[0].divergence == 0.0
        assert session.run(x).output.tobytes() == clean.tobytes()

    def test_specs_contract_validation(self, session, x):
        campaign = session.propagation_campaign(LAYER, x=x)
        with pytest.raises(FaultInjectionError, match="disagrees"):
            campaign.run(3, specs=[BIG])
        with pytest.raises(FaultInjectionError, match="faults_per_trial"):
            campaign.run(1, specs=[BIG], faults_per_trial=2)

    @pytest.mark.parametrize("faults_per_trial", [1, 3])
    def test_random_runs_draw_one_stream(self, session, x, faults_per_trial):
        """For one seed, run(n), run_batch(n) and a propagation
        campaign's run(n) on the same layer draw the same faults."""
        session.run(x)  # record the operands the campaigns attack
        fpt = {"faults_per_trial": faults_per_trial}
        run = session.campaign(LAYER, seed=3).run(6, **fpt)
        batch = session.campaign(LAYER, seed=3).run_batch(6, **fpt)
        propagation = session.propagation_campaign(LAYER, x=x, seed=3).run(6, **fpt)
        faults = [t.faults for t in batch.trials]
        assert [t.faults for t in run.trials] == faults
        assert [r.faults for r in propagation.records] == faults

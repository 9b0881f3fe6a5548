"""Downstream replay of propagation campaigns (DESIGN.md §3).

Contracts:

* every :class:`~repro.faults.PropagationRecord` field is pinned by a
  SHA-256 digest over a grid of models, pipelines, struck layers and
  recovery modes — replay optimisations must leave records
  bit-identical;
* a campaign replays through state it owns, so no campaign changes a
  cached entry of the session it was built from (the INT8 executors'
  quantization scales in particular);
* the end-to-end recovery check runs once per campaign, at
  construction, and the number of replays a run makes depends only on
  its trials.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.api import deploy
from repro.errors import FaultInjectionError
from repro.faults import FaultKind, FaultSpec, PropagationCampaign, RecoveryPolicy
from repro.nn import build_runnable, runnable_input_shape

RECOVERY = {
    "off": None,
    "transient": RecoveryPolicy(),
    "sticky": RecoveryPolicy(fault_model="sticky"),
}

#: (model, pipeline) -> SHA-256 over every record field of the grid in
#: :func:`grid_digest`, recorded before the replay state moved onto the
#: campaign.
RECORD_GRID_DIGESTS = {
    ("mlp_bottom", "fp16"): "87234adfadf054766cc72d538ee1dec369491072cefd7329044b064f7429051d",
    ("transformer_encoder", "fp16"): "d8ec09471216d9f98fca0677b247e010f859450cfd9cb7bb7703fe3dc6eded83",
    ("transformer_decoder", "fp16"): "d9f79349d4c4c6909897fe072252678458d258181948fbc9b985fe1a57462499",
    ("transformer_decoder", "int8"): "58774762b584414b01fccaf21cc6ead476768799c049a82ffa2c7cd104fb9c5c",
}

BATCH = {"mlp_bottom": 1, "transformer_encoder": 1, "transformer_decoder": 2}
FP16_TRIALS = 32
INT8_TRIALS = 8
#: Struck values that send the FP16 activations non-finite.
NON_FINITE = [
    FaultSpec(row=0, col=0, kind=FaultKind.BITFLIP_FP32, bit=30),
    FaultSpec(row=0, col=1, kind=FaultKind.SET, value=float("inf")),
    FaultSpec(row=0, col=2, kind=FaultKind.SET, value=float("-inf")),
    FaultSpec(row=0, col=3, kind=FaultKind.SET, value=float("nan")),
]


def make_session(model, dtype="fp16"):
    batch = BATCH[model]
    return deploy(
        model,
        "T4",
        batch=batch,
        policy="guided" if dtype == "fp16" else "guided@int8",
        runnable=build_runnable(model, batch=batch, seed=0),
    )


def model_input(model):
    shape = runnable_input_shape(model, batch=BATCH[model])
    return (np.random.default_rng(1).standard_normal(shape) * 0.5).astype(np.float16)


def finite_add_specs(session, layer, n, seed):
    """``n`` single-fault ADD trials whose values keep activations finite."""
    rng = np.random.default_rng(seed)
    dims = session.plan.layer(layer)
    return [
        FaultSpec(
            row=int(rng.integers(dims.m)),
            col=int(rng.integers(dims.n)),
            kind=FaultKind.ADD,
            value=float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 6)),
        )
        for _ in range(n)
    ]


def record_bytes(record):
    return "".join(
        f"{f.name}={getattr(record, f.name)!r};" for f in dataclasses.fields(record)
    ).encode()


def grid_digest(model, dtype):
    """Digest of every record over three struck layers x three recovery modes.

    FP16 campaigns share one session and run random draws plus
    :data:`NON_FINITE`; INT8 campaigns each get a fresh session and
    explicit finite ``ADD`` specs (non-finite INT8 activations have no
    defined quantization).
    """
    digest = hashlib.sha256()
    x = model_input(model)
    shared = make_session(model) if dtype == "fp16" else None
    for index, layer in enumerate(make_session(model, dtype).plan.layer_names[:3]):
        for mode, policy in RECOVERY.items():
            session = shared or make_session(model, dtype)
            campaign = session.propagation_campaign(
                layer, x=x, seed=index, recovery=policy
            )
            if dtype == "fp16":
                records = campaign.run_batch(FP16_TRIALS).records
                records += campaign.run(0, specs=NON_FINITE).records
            else:
                specs = finite_add_specs(session, layer, INT8_TRIALS, index)
                records = campaign.run(0, specs=specs).records
            digest.update(f"{layer}/{mode}:".encode())
            for record in records:
                digest.update(record_bytes(record))
    return digest.hexdigest()


class TestRecordGridGolden:
    @pytest.mark.parametrize("model, dtype", sorted(RECORD_GRID_DIGESTS))
    def test_records_are_bit_identical(self, model, dtype):
        assert grid_digest(model, dtype) == RECORD_GRID_DIGESTS[(model, dtype)]


def executor_scales(session):
    return {
        key: (entry.a_scale, entry.b_scale)
        for key, entry in session.cache._entries.items()
    }


class TestCampaignOwnedReplay:
    STRIKE = FaultSpec(row=0, col=3, kind=FaultKind.ADD, value=3e8)

    def test_int8_campaigns_leave_the_session_cache_untouched(self):
        session = make_session("transformer_decoder", "int8")
        x = model_input("transformer_decoder")
        clean = session.run(x).output.tobytes()
        scales = executor_scales(session)

        session.propagation_campaign("qkv", x=x).run(0, specs=[self.STRIKE])
        assert session.run(x).output.tobytes() == clean
        # A second campaign builds its replay state from the same
        # cache: its end-to-end check must still find the clean output.
        result = session.propagation_campaign(
            "qkv", x=x, recovery=RecoveryPolicy()
        ).run(0, specs=[self.STRIKE])
        assert result.records[0].recovered
        assert executor_scales(session) == scales


def count_replays(monkeypatch):
    calls = []
    original = PropagationCampaign._replay

    def counted(self, c16):
        calls.append(1)
        return original(self, c16)

    monkeypatch.setattr(PropagationCampaign, "_replay", counted)
    return calls


class TestEndToEndCheck:
    def test_construction_raises_on_a_diverging_replay(self, monkeypatch):
        session = make_session("mlp_bottom")
        x = model_input("mlp_bottom")
        original = PropagationCampaign._replay

        def off_by_one_ulp(self, c16):
            out = original(self, c16).copy()
            out.flat[0] = np.nextafter(out.flat[0], np.float16(np.inf))
            return out

        monkeypatch.setattr(PropagationCampaign, "_replay", off_by_one_ulp)
        with pytest.raises(FaultInjectionError, match="clean model output"):
            session.propagation_campaign("fc0", x=x)
        session.propagation_campaign("fc0", x=x, verify_recovery=False)

    def test_construction_replays_once(self, monkeypatch):
        session = make_session("mlp_bottom")
        x = model_input("mlp_bottom")
        calls = count_replays(monkeypatch)
        session.propagation_campaign("fc0", x=x)
        assert len(calls) == 1
        session.propagation_campaign("fc0", x=x, verify_recovery=False)
        assert len(calls) == 1

    def test_run_replays_do_not_depend_on_recovery_checks(self, monkeypatch):
        session = make_session("mlp_bottom")
        x = model_input("mlp_bottom")
        calls = count_replays(monkeypatch)
        counts, recovered = {}, {}
        for verify in (True, False):
            for mode, policy in RECOVERY.items():
                campaign = session.propagation_campaign(
                    "fc0", x=x, seed=11, recovery=policy, verify_recovery=verify
                )
                calls.clear()
                result = campaign.run_batch(48)
                counts[verify, mode] = len(calls)
                recovered[verify, mode] = result.n_recovered
        assert recovered[True, "transient"] > 0
        assert len(set(counts.values())) == 1
        assert 0 < counts[True, "off"] < 48

"""Downstream replay of propagation campaigns (DESIGN.md §3).

Contracts:

* every :class:`~repro.faults.PropagationRecord` field is pinned by a
  SHA-256 digest over a grid of models, pipelines, struck layers and
  recovery modes — replay optimisations must leave records
  bit-identical;
* a campaign replays through state it owns, so no campaign changes a
  cached entry of the session it was built from (the INT8 executors'
  quantization scales in particular);
* a replay carries only the rows a fault changed from op to op: a
  row-local op runs on them alone, a downstream GEMM recomputes only
  the logical rows whose padded activations changed (every logical row
  when an INT8 activation scale moved, never a padding row), and a
  replay whose rows all return to the clean bytes stops there;
  construction checks on the host that rows recomputed apart reproduce
  the traced output;
* the end-to-end recovery check runs once per campaign, at
  construction, and the number of replays a run makes depends only on
  its trials.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
import tail_model

from repro.api import deploy
from repro.errors import FaultInjectionError
from repro.faults import FaultKind, FaultSpec, PropagationCampaign, RecoveryPolicy
from repro.gemm import Int8TiledGemm, TiledGemm
from repro.nn import build_runnable, runnable_input_shape
from repro.nn.inference import Flatten, GlobalAvgPool, ReLU
from repro.nn.transformer import _GELU, _SoftmaxTail

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
    ("coral", "fp16"): "1eb1533f969c7ae449215d06f152254385de8d9b1295a04e782ac870df8439f2",
    ("coral", "int8"): "369be3f1dd490b64275ee089bd5c0e60faf3ccb8a6a61ad737c031a6499a04ce",
    (tail_model.NAME, "fp16"): "39390564eee02410da2334354a5732135c68b5e6e7752c8c773027206c6525d5",
    (tail_model.NAME, "int8"): "84eab1d1ba4a83d15c1263a0a42c65f8919f8f30e09442d885b1cc71e64b43e3",
}

BATCH = {
    "mlp_bottom": 1,
    "transformer_encoder": 1,
    "transformer_decoder": 2,
    "coral": 2,
    tail_model.NAME: 1,
}
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
    policy = "guided" if dtype == "fp16" else "guided@int8"
    if model == tail_model.NAME:
        graph, runnable = tail_model.build()
        return deploy(graph, "T4", policy=policy, runnable=runnable)
    return deploy(
        model,
        "T4",
        batch=batch,
        policy=policy,
        runnable=build_runnable(model, batch=batch, seed=0),
    )


def model_input(model):
    if model == tail_model.NAME:
        shape = tail_model.INPUT_SHAPE
    else:
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


def record_multiplies(monkeypatch):
    """``(rows of A, logical m, m_full)`` of every GEMM multiply call."""
    calls = []
    for cls in (TiledGemm, Int8TiledGemm):
        original = cls.__dict__["multiply"]

        def recorded(self, a_pad, b_pad, _original=original):
            calls.append((len(a_pad), self.problem.m, self.m_full))
            return _original(self, a_pad, b_pad)

        monkeypatch.setattr(cls, "multiply", recorded)
    return calls


def record_forwards(monkeypatch, *classes):
    """Per op class, the row count of every ``forward`` call."""
    calls = {cls: [] for cls in classes}
    for cls in classes:
        original = cls.forward

        def recorded(self, x, _cls=cls, _original=original):
            calls[_cls].append(len(x))
            return _original(self, x)

        monkeypatch.setattr(cls, "forward", recorded)
    return calls


class TestRowSparseReplay:
    def test_a_struck_query_recomputes_one_row_per_reached_layer(self, monkeypatch):
        session = make_session("transformer_decoder")
        campaign = session.propagation_campaign("qkv", x=model_input("transformer_decoder"))
        calls = record_multiplies(monkeypatch)
        # Row 3 of head 0's query: heads 1-3 never see it, so of the 11
        # downstream GEMMs only h0.scores, h0.ctx, attn.out, ffn.fc1 and
        # ffn.fc2 run, one row each.
        spec = FaultSpec(row=3, col=5, kind=FaultKind.ADD, value=1.0)
        campaign.run(0, specs=[spec])
        assert calls == [(1, 16, 16)] * 5

    def test_a_struck_query_runs_each_softmax_and_the_gelu_on_one_row(self, monkeypatch):
        session = make_session("transformer_decoder")
        campaign = session.propagation_campaign("qkv", x=model_input("transformer_decoder"))
        calls = record_forwards(monkeypatch, _SoftmaxTail, _GELU)
        # Heads 1-3 never read the struck query, but the row carries
        # head 0's context past them, so every softmax runs on it.
        spec = FaultSpec(row=3, col=5, kind=FaultKind.ADD, value=1.0)
        campaign.run(0, specs=[spec])
        assert calls == {_SoftmaxTail: [1] * 4, _GELU: [1]}

    def test_a_fault_relu_absorbs_returns_before_the_pool(self, monkeypatch):
        session = make_session(tail_model.NAME)
        campaign = session.propagation_campaign("conv2", x=model_input(tail_model.NAME))
        row, col = np.argwhere(campaign._clean_c16 < 0)[0]
        replays = count_replays(monkeypatch)
        forwards = record_forwards(monkeypatch, ReLU, GlobalAvgPool, Flatten)
        multiplies = record_multiplies(monkeypatch)
        spec = FaultSpec(row=int(row), col=int(col), kind=FaultKind.SET, value=-100.0)
        (record,) = campaign.run(0, specs=[spec]).records
        assert len(replays) == 1
        assert forwards == {ReLU: [1], GlobalAvgPool: [], Flatten: []}
        assert multiplies == []
        assert not record.output_corrupted

    def test_a_fault_relu_absorbs_skips_every_downstream_gemm(self, monkeypatch):
        session = make_session("mlp_bottom")
        campaign = session.propagation_campaign("fc0", x=model_input("mlp_bottom"))
        row, col = np.argwhere(campaign._clean_c16 < 0)[0]
        calls = record_multiplies(monkeypatch)
        spec = FaultSpec(row=int(row), col=int(col), kind=FaultKind.SET, value=-100.0)
        (record,) = campaign.run(0, specs=[spec]).records
        assert calls == []
        assert not record.output_corrupted

    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_a_one_row_layer_multiplies_one_row_not_its_padding(self, monkeypatch, dtype):
        session = make_session("mlp_bottom", dtype)
        campaign = session.propagation_campaign("fc0", x=model_input("mlp_bottom"))
        row, col = np.argwhere(campaign._clean_c16 > 0)[0]
        calls = record_multiplies(monkeypatch)
        spec = FaultSpec(row=int(row), col=int(col), kind=FaultKind.ADD, value=3e4)
        campaign.run(0, specs=[spec])
        assert [rows for rows, _, _ in calls] == [1, 1]
        assert all(m_full > 1 for _, _, m_full in calls)

    def test_changed_rows_compare_raw_bytes(self):
        campaign = make_session("transformer_decoder").propagation_campaign(
            "qkv", x=model_input("transformer_decoder")
        )
        _, gemm = campaign._downstream[-1]  # ffn.fc2: 16 logical rows
        clean = gemm.a_pad.copy()
        clean[2, 0], clean[9, 1] = 0.0, np.nan
        gemm = dataclasses.replace(gemm, a_pad=clean)
        new = clean.copy()
        assert gemm.changed_rows(new, gemm.a_scale).size == 0  # same NaN bytes
        new[2, 0] = -0.0
        new.view(np.uint16)[9, 1] ^= 1  # another NaN payload
        assert gemm.changed_rows(new, gemm.a_scale).tolist() == [2, 9]

    @pytest.mark.parametrize("model", ["mlp_bottom", "transformer_decoder"])
    def test_a_moved_int8_scale_changes_every_logical_row(self, model):
        session = make_session(model, "int8")
        layer = session.plan.layer_names[0]
        campaign = session.propagation_campaign(layer, x=model_input(model))
        _, gemm = campaign._downstream[-1]
        m = gemm.executor.problem.m
        moved = np.nextafter(gemm.a_scale, np.inf)
        assert gemm.changed_rows(gemm.a_pad, moved).tolist() == list(range(m))


class TestRowReplayCheck:
    def test_construction_raises_when_a_row_alone_differs(self, monkeypatch):
        session = make_session("transformer_decoder")
        x = model_input("transformer_decoder")
        original = TiledGemm.multiply

        def lone_rows_differ(self, a_pad, b_pad):
            acc = original(self, a_pad, b_pad)
            if len(a_pad) == 1 < self.problem.m:
                acc[0, 0] += 1.0  # far past one FP16 ULP of the output
            return acc

        monkeypatch.setattr(TiledGemm, "multiply", lone_rows_differ)
        with pytest.raises(FaultInjectionError, match="1 of 16 rows of downstream layer"):
            session.propagation_campaign("qkv", x=x)
        session.propagation_campaign("qkv", x=x, verify_recovery=False)

    def test_construction_raises_when_an_op_reads_other_rows(self, monkeypatch):
        session = make_session("transformer_decoder")
        x = model_input("transformer_decoder")

        def normalize_over_all_rows(self, x):
            tail = x[:, -self.n :].astype(np.float32)
            tail = np.exp(tail - tail.max())
            tail /= tail.sum()
            return np.concatenate([x[:, : -self.n], tail.astype(np.float16)], axis=1)

        monkeypatch.setattr(_SoftmaxTail, "forward", normalize_over_all_rows)
        with pytest.raises(FaultInjectionError, match="'_SoftmaxTail' on the last of its input"):
            session.propagation_campaign("qkv", x=x)
        session.propagation_campaign("qkv", x=x, verify_recovery=False)

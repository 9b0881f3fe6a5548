"""SHA-256 pins of every campaign record and batch verdict.

Run this file first after any change to the campaign or verdict engine.
The digests cover every field of every :class:`TrialRecord` the
campaign paths produce, and every :class:`CheckVerdict` field of
``inject_batch`` outcomes, over six schemes on both pipelines, on a
shape that is not a tile multiple:

* ``run_batch`` at 1 and 4 faults per trial; the 4-fault draw holds a
  trial that strikes one element twice (asserted below);
* ``run(specs=...)`` with checksum-path and mixed trials, exponent-bit
  flips, an empty trial, a duplicate site, and FP16 ``SET`` to +inf,
  -inf and NaN;
* ``run_batch(workers=2)`` for one FP16 row and one INT8 row, which
  must reproduce the in-process pins;
* ``inject_batch`` verdicts, which the dense oracle
  (``tests/dense_oracle.py``) must reproduce against the same pin.

Floats are digested as their IEEE-754 bytes, so a change of one ULP or
of the sign of a zero fails here.  NaN digests as one token: its
payload is not a value any consumer reads.  A second class checks that
every :class:`CampaignResult` aggregate equals its definition
recomputed from ``.trials``.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from dense_oracle import oracle_inject_batch

from repro.abft import scheme_from_token
from repro.faults import (
    CampaignOptions,
    FaultCampaign,
    FaultKind,
    FaultPath,
    FaultSpec,
)

SCHEMES = (
    "global",
    "thread_onesided",
    "thread_twosided",
    "global_multi:2",
    "replication_single",
    "replication_traditional",
)
TOKENS = [name + suffix for suffix in ("", "@int8") for name in SCHEMES]

#: ``(M, N, K)``: the selected 32x32 threadblock tile pads it to 32x24.
SHAPE = (30, 22, 36)
BATCH_SIZE = 48
SINGLE_TRIALS = 120
MULTI_TRIALS = 80
SHARDED = ("global", "thread_onesided@int8")


def _operands():
    m, n, k = SHAPE
    rng = np.random.default_rng(7)
    a = (rng.standard_normal((m, k)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((k, n)) * 0.5).astype(np.float16)
    return a, b


def _campaign(token, seed):
    a, b = _operands()
    options = CampaignOptions(seed=seed, batch_size=BATCH_SIZE)
    return FaultCampaign(scheme_from_token(token), a, b, options=options)


def explicit_trials(domain, fp16):
    """Hand-written trials covering paths and value edge cases."""
    rows, cols = domain
    ck = FaultPath.CHECKSUM
    trials = [
        (FaultSpec(3, 5, FaultKind.ADD, value=40.0, path=ck),),
        (FaultSpec(7, 2, FaultKind.BITFLIP_FP32, bit=27, path=ck),),
        (FaultSpec(1, 1, FaultKind.SET, value=0.0, path=ck),),
        (FaultSpec(rows - 1, cols - 1, FaultKind.BITFLIP_FP16, bit=3, path=ck),),
        (
            FaultSpec(2, 3, FaultKind.ADD, value=25.0),
            FaultSpec(9, 4, FaultKind.ADD, value=-7.0, path=ck),
        ),
        (FaultSpec(4, 4, FaultKind.SET, value=7.0), FaultSpec(4, 4, FaultKind.ADD, value=100.0)),
        (),
        (FaultSpec(rows - 1, cols - 1, FaultKind.ADD, value=0.5),),
    ]
    trials += [
        (FaultSpec(6, 7, FaultKind.BITFLIP_FP32, bit=bit),) for bit in range(23, 31)
    ]
    trials += [
        (FaultSpec(11, 3, FaultKind.BITFLIP_FP16, bit=bit),) for bit in range(10, 15)
    ]
    if fp16:
        trials += [
            (FaultSpec(5, 6, FaultKind.SET, value=value),)
            for value in (math.inf, -math.inf, math.nan)
        ]
        trials.append(
            (
                FaultSpec(5, 6, FaultKind.SET, value=math.inf),
                FaultSpec(8, 9, FaultKind.SET, value=-math.inf),
            )
        )
    return trials


def _f64(x):
    return b"nan" if math.isnan(x) else struct.pack("<d", float(x))


def _spec_bytes(spec):
    return (
        f"{spec.row},{spec.col},{spec.kind.value},{spec.bit},{spec.path.value},".encode()
        + _f64(spec.value)
    )


def records_digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(b"[")
        for spec in record.faults:
            digest.update(_spec_bytes(spec) + b";")
        digest.update(_f64(record.delta))
        digest.update(
            bytes([record.detected, record.significant, record.benign_alarm])
        )
    return digest.hexdigest()


def verdicts_digest(outcomes):
    digest = hashlib.sha256()
    for outcome in outcomes:
        v = outcome.verdict
        digest.update(f"[{int(v.detected)};{v.violations};{v.checks};".encode())
        digest.update(_f64(v.max_residual) + _f64(v.tolerance))
    return digest.hexdigest()


def _has_duplicate_site(records):
    return any(
        len({(f.row, f.col) for f in r.faults}) < len(r.faults) for r in records
    )


def run_digests(token):
    """``{run: digest}`` for one scheme token (the pinned quantities)."""
    fp16 = not token.endswith("@int8")
    single = _campaign(token, seed=11).run_batch(SINGLE_TRIALS).trials
    multi = _campaign(token, seed=13).run_batch(MULTI_TRIALS, faults_per_trial=4).trials
    assert _has_duplicate_site(multi), "the 4-fault draw must repeat a site"
    campaign = _campaign(token, seed=14)
    trials = explicit_trials(campaign.fault_domain, fp16)
    explicit = campaign.run(0, specs=trials).trials
    batch = trials + [
        t if isinstance(t, tuple) else (t,)
        for t in campaign.draw_faults(40, faults_per_trial=2)
    ]
    prepared = campaign.prepared
    verdicts = verdicts_digest(prepared.inject_batch(batch))
    dense = verdicts_digest(oracle_inject_batch(prepared, batch))
    assert dense == verdicts, "dense oracle verdicts differ from the engine's"
    return {
        "batch1": records_digest(single),
        "batch4": records_digest(multi),
        "explicit": records_digest(explicit),
        "verdicts": verdicts,
    }


#: Recorded before the columnar campaign engine replaced the per-trial
#: object pipeline; any engine change must reproduce them exactly.
DIGESTS = {
    "global": {
        "batch1": "459bf16feb5ef48a4f77ca5830d5091e5700bca4a91273d893319b7ade61498c",
        "batch4": "1b0e3819a0d1b061bf44ba1b7af25d0870b28ec3516903a1abfd6f135d3e7126",
        "explicit": "cc5741a12fb4f53e239274bc985f9b581da3dba9b5f5371980687189fe869b89",
        "verdicts": "75a0539f21d5d99ffe4cdb850e1da8442997b9dfa4d87042f4deb4128cd566a7",
    },
    "thread_onesided": {
        "batch1": "a811ea1b6826fa7ac5d4dc96b25d3c548c9c3f30749cb879dad6b3dddd7880cf",
        "batch4": "961afd3bc06b11d2317e5e5f8f5e7535ab7366f1872861ba09e621116a60d141",
        "explicit": "77c15310f68df58daed4828758b5ad3b5c8c59d4b4d092cb42c0411309fbdd8d",
        "verdicts": "771feab44bf8322089eccc783150e3de86ba6e6cf58e7fd11c7bb3d485230122",
    },
    "thread_twosided": {
        "batch1": "32e686e70e3b4995324c97043bf91b6dfefa49d298ec006825bf45159a4b4a77",
        "batch4": "961afd3bc06b11d2317e5e5f8f5e7535ab7366f1872861ba09e621116a60d141",
        "explicit": "77c15310f68df58daed4828758b5ad3b5c8c59d4b4d092cb42c0411309fbdd8d",
        "verdicts": "c1cfc986a2c6867adb3a1558ebd2bae594d7827c81c56fb8c2d276503edc3d69",
    },
    "global_multi:2": {
        "batch1": "459bf16feb5ef48a4f77ca5830d5091e5700bca4a91273d893319b7ade61498c",
        "batch4": "1b0e3819a0d1b061bf44ba1b7af25d0870b28ec3516903a1abfd6f135d3e7126",
        "explicit": "cc5741a12fb4f53e239274bc985f9b581da3dba9b5f5371980687189fe869b89",
        "verdicts": "46314f21ba75196d03e46158ff0abcfbb9e5d643a1eed74cc68a9b25fe0e6a54",
    },
    "replication_single": {
        "batch1": "75937fe3ecb3df89a86b6709f2730806cb85ec42b00d4cf5184e1e789bd28aaa",
        "batch4": "961afd3bc06b11d2317e5e5f8f5e7535ab7366f1872861ba09e621116a60d141",
        "explicit": "77c15310f68df58daed4828758b5ad3b5c8c59d4b4d092cb42c0411309fbdd8d",
        "verdicts": "c775a76e49395123066f85036d2215dc34565e5bccfa28c9b82eec48fdb0dca0",
    },
    "replication_traditional": {
        "batch1": "2edcb345586126558ae6fd27da52e3cd4a5524368131a95b9a57394ce2fbed68",
        "batch4": "961afd3bc06b11d2317e5e5f8f5e7535ab7366f1872861ba09e621116a60d141",
        "explicit": "77c15310f68df58daed4828758b5ad3b5c8c59d4b4d092cb42c0411309fbdd8d",
        "verdicts": "2ec2cbfb5fb1d69fd117211addc024a787ce27639afad074d8d0d0f5a303cff6",
    },
    "global@int8": {
        "batch1": "d108bb588ed750283c27d7f2f94aa17c66c98725cea21e9b52d542b600b134f4",
        "batch4": "baba50b23373e47caa353ddb5f6da5e486273c5d588f1b0411736febd3029fba",
        "explicit": "0cd8efd75647a280abd9a5f744ccb8839c43951052067778b8a99a61b22086e7",
        "verdicts": "1bf2a146609c8696ea27d76210331d11a31f467510b451495415e10b534354da",
    },
    "thread_onesided@int8": {
        "batch1": "d108bb588ed750283c27d7f2f94aa17c66c98725cea21e9b52d542b600b134f4",
        "batch4": "baba50b23373e47caa353ddb5f6da5e486273c5d588f1b0411736febd3029fba",
        "explicit": "8e43e6e47465cdf90ee444390e692f2e84ee2fb37c877067ee028708e072c3b9",
        "verdicts": "bad030dcc566b41edfd6744e9059b298d6d3bce6baaaa5a7287e5e209176566c",
    },
    "thread_twosided@int8": {
        "batch1": "d108bb588ed750283c27d7f2f94aa17c66c98725cea21e9b52d542b600b134f4",
        "batch4": "baba50b23373e47caa353ddb5f6da5e486273c5d588f1b0411736febd3029fba",
        "explicit": "8e43e6e47465cdf90ee444390e692f2e84ee2fb37c877067ee028708e072c3b9",
        "verdicts": "d0cd05c1416fca0f947c806d2f3bc233c4f3bd135f7db5f7cf07b65f131db213",
    },
    "global_multi:2@int8": {
        "batch1": "d108bb588ed750283c27d7f2f94aa17c66c98725cea21e9b52d542b600b134f4",
        "batch4": "baba50b23373e47caa353ddb5f6da5e486273c5d588f1b0411736febd3029fba",
        "explicit": "0cd8efd75647a280abd9a5f744ccb8839c43951052067778b8a99a61b22086e7",
        "verdicts": "40de9e80f02daf247a2d7901328139554e07a185d56b9484275c2fe088f861c7",
    },
    "replication_single@int8": {
        "batch1": "d108bb588ed750283c27d7f2f94aa17c66c98725cea21e9b52d542b600b134f4",
        "batch4": "baba50b23373e47caa353ddb5f6da5e486273c5d588f1b0411736febd3029fba",
        "explicit": "8e43e6e47465cdf90ee444390e692f2e84ee2fb37c877067ee028708e072c3b9",
        "verdicts": "d0cd05c1416fca0f947c806d2f3bc233c4f3bd135f7db5f7cf07b65f131db213",
    },
    "replication_traditional@int8": {
        "batch1": "d108bb588ed750283c27d7f2f94aa17c66c98725cea21e9b52d542b600b134f4",
        "batch4": "baba50b23373e47caa353ddb5f6da5e486273c5d588f1b0411736febd3029fba",
        "explicit": "0cd8efd75647a280abd9a5f744ccb8839c43951052067778b8a99a61b22086e7",
        "verdicts": "06d3a48f1a764894f833037b57f5874454606b1b387dc410fb12cbcda1cc24af",
    },
}


class TestRecordDigests:
    @pytest.mark.parametrize("token", TOKENS)
    def test_records_and_verdicts_are_bit_identical(self, token):
        assert run_digests(token) == DIGESTS[token]

    @pytest.mark.parametrize("token", SHARDED)
    def test_sharded_run_reproduces_in_process_pins(self, token):
        records = _campaign(token, seed=11).run_batch(SINGLE_TRIALS, workers=2).trials
        assert records_digest(records) == DIGESTS[token]["batch1"]


def _key(record):
    delta = "nan" if math.isnan(record.delta) else record.delta
    return (record.faults, delta, record.detected, record.significant, record.benign_alarm)


def assert_aggregates_match_trials(result):
    trials = result.trials
    assert isinstance(trials, list)
    assert result.n_trials == len(trials)
    assert result.n_detected == sum(t.detected for t in trials)
    assert result.n_significant == sum(t.significant for t in trials)
    assert result.n_benign_alarms == sum(t.benign_alarm for t in trials)
    significant = [t for t in trials if t.significant]
    expected = (
        sum(t.detected for t in significant) / len(significant) if significant else 1.0
    )
    assert result.coverage == expected
    assert [_key(t) for t in result.false_negatives] == [
        _key(t) for t in trials if t.significant and not t.detected
    ]
    groups = result.by_fault_count()
    counts = sorted({t.n_faults for t in trials})
    assert list(groups) == counts
    for count, group in groups.items():
        members = [t for t in trials if t.n_faults == count]
        assert [_key(t) for t in group.trials] == [_key(t) for t in members]
        assert group.scheme == result.scheme
        assert group.n_detected == sum(t.detected for t in members)
        assert group.n_significant == sum(t.significant for t in members)
    assert result.coverage_by_fault_count() == {k: g.coverage for k, g in groups.items()}


class TestAggregatesFollowTrials:
    @pytest.mark.parametrize("token", ["global", "thread_twosided@int8", "replication_traditional"])
    def test_run_batch_aggregates(self, token):
        assert_aggregates_match_trials(_campaign(token, seed=3).run_batch(90))
        assert_aggregates_match_trials(
            _campaign(token, seed=4).run_batch(30, faults_per_trial=3)
        )

    @pytest.mark.parametrize("token", ["global", "replication_single"])
    def test_explicit_run_aggregates(self, token):
        campaign = _campaign(token, seed=5)
        trials = explicit_trials(campaign.fault_domain, fp16=True)
        result = campaign.run(0, specs=trials + campaign.draw_faults(20))
        assert result.n_benign_alarms > 0
        assert_aggregates_match_trials(result)

    def test_empty_run_aggregates(self):
        assert_aggregates_match_trials(_campaign("global", seed=6).run_batch(0))

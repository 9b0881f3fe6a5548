"""Sharded campaign engine: delegation, clamping, merging, failure.

The determinism property (fixed seed => identical records at any
worker count) is pinned by hypothesis in
``tests/properties/test_sharded_determinism.py``; this file covers the
engine's machinery and edge cases: shard partitioning, the
shared-memory payload roundtrip, ``workers=1`` delegation to the
in-process path, worker counts exceeding the trial count, merged
statistics, the pool lifecycle (one pool per campaign, reused across
runs, gone after ``close()``, a ``with`` block or interpreter exit), and
the failure contract (a raising or dying worker surfaces one
``CampaignError``, promptly, with nothing leaked).
"""

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.abft import GlobalABFT, MultiChecksumGlobalABFT, ReplicationTraditional
from repro.errors import CampaignError, FaultInjectionError
from repro.faults import (
    CampaignOptions,
    FaultCampaign,
    FaultKind,
    FaultSpec,
    shard_bounds,
)
from repro.faults import parallel
from repro.faults.campaign import SpecArrays
from repro.faults.parallel import attach_payload, export_payload


def _operands(seed=0, m=48, n=40, k=32):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, k)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((k, n)) * 0.5).astype(np.float16)
    return a, b


def _record_key(record):
    """Comparable form of a TrialRecord (NaN-safe, unlike dataclass ==)."""
    delta = record.delta
    return (
        record.faults,
        "nan" if np.isnan(delta) else delta,
        record.detected,
        record.significant,
        record.benign_alarm,
    )


def _same_records(xs, ys):
    return [_record_key(r) for r in xs] == [_record_key(r) for r in ys]


def _campaign(seed=7, **kwargs):
    a, b = _operands()
    return FaultCampaign(
        GlobalABFT(), a, b, options=CampaignOptions(seed=seed, **kwargs)
    )


def _segments():
    return set(glob.glob("/dev/shm/psm_*"))


def _children():
    return {p.pid for p in multiprocessing.active_children()}


# ----------------------------------------------------------------------
# Shard partitioning
# ----------------------------------------------------------------------
class TestShardBounds:
    def test_tiles_the_range_contiguously(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_workers_clamped_to_trials(self):
        assert shard_bounds(2, 8) == [(0, 1), (1, 2)]

    def test_single_worker(self):
        assert shard_bounds(5, 1) == [(0, 5)]

    def test_sizes_differ_by_at_most_one(self):
        for n in range(1, 40):
            for w in range(1, 12):
                sizes = [hi - lo for lo, hi in shard_bounds(n, w)]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                assert all(s > 0 for s in sizes)


# ----------------------------------------------------------------------
# Shared-memory payload roundtrip
# ----------------------------------------------------------------------
class TestPayload:
    def test_roundtrip_preserves_object_graph(self):
        obj = {
            "arr": np.arange(12, dtype=np.float32).reshape(3, 4),
            "nested": [np.float16([1.5, -2.0]), "text", 42],
            "empty": np.empty((0, 3)),
        }
        payload, shm = export_payload(obj)
        try:
            # Simulate a worker: clear the attach cache first so the
            # segment is genuinely re-opened.
            parallel._ATTACHED.pop(payload.shm_name, None)
            rebuilt = attach_payload(payload)
            np.testing.assert_array_equal(rebuilt["arr"], obj["arr"])
            np.testing.assert_array_equal(rebuilt["nested"][0], obj["nested"][0])
            assert rebuilt["nested"][1:] == ["text", 42]
            assert rebuilt["empty"].shape == (0, 3)
            assert not rebuilt["arr"].flags.writeable
        finally:
            attached = parallel._ATTACHED.pop(payload.shm_name, None)
            if attached is not None:
                attached[0].close()
            shm.close()
            shm.unlink()

    def test_prepared_execution_roundtrip(self):
        campaign = _campaign()
        prepared = campaign.prepared
        prepared.clean_reductions  # force the lazy check arrays
        payload, shm = export_payload(prepared)
        try:
            parallel._ATTACHED.pop(payload.shm_name, None)
            rebuilt = attach_payload(payload)
            np.testing.assert_array_equal(rebuilt.c_clean, prepared.c_clean)
            np.testing.assert_array_equal(rebuilt.a_pad, prepared.a_pad)
            assert rebuilt.scheme.name == prepared.scheme.name
            assert rebuilt.tile == prepared.tile
        finally:
            attached = parallel._ATTACHED.pop(payload.shm_name, None)
            if attached is not None:
                attached[0].close()
            shm.close()
            shm.unlink()


# ----------------------------------------------------------------------
# Spec arrays: the draw/assembly split the sharded path rides
# ----------------------------------------------------------------------
class TestSpecArrays:
    def test_assembly_matches_direct_draw(self):
        c1 = _campaign(seed=11)
        c2 = _campaign(seed=11)
        direct = c1.draw_faults(64, faults_per_trial=2)
        arrays = c2._draw_spec_arrays(64, 2)
        rebuilt = arrays.tolist()
        assert rebuilt == [tuple(t) for t in direct]
        assert [arrays[i] for i in range(len(arrays))] == rebuilt
        assert SpecArrays.from_trials(rebuilt).tolist() == rebuilt

    def test_slice_views(self):
        arrays = _campaign()._draw_spec_arrays(10)
        part = arrays[3:7]
        assert len(part) == 4
        assert part.tolist() == arrays.tolist()[3:7]

    def test_spec_arrays_is_columnar(self):
        arrays = _campaign()._draw_spec_arrays(5)
        assert isinstance(arrays, SpecArrays)
        assert arrays.kind_codes.dtype == np.uint8


# ----------------------------------------------------------------------
# Worker-count edge cases
# ----------------------------------------------------------------------
class TestWorkerCounts:
    def test_workers_one_delegates_in_process(self, monkeypatch):
        """workers=1 must never touch the pool machinery at all."""

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("sharded path used for workers=1")

        monkeypatch.setattr(parallel, "run_campaign_sharded", explode)
        baseline = _campaign().run_batch(20)
        delegated = _campaign(workers=1).run_batch(20)
        assert _same_records(baseline.trials, delegated.trials)

    def test_workers_exceeding_trials_clamp(self):
        baseline = _campaign().run_batch(3)
        sharded = _campaign().run_batch(3, workers=16)
        assert _same_records(baseline.trials, sharded.trials)

    def test_constructor_default_applies_to_runs(self):
        baseline = _campaign().run_batch(12)
        sharded = _campaign(workers=2).run_batch(12)
        assert _same_records(baseline.trials, sharded.trials)

    def test_per_call_override_wins(self):
        baseline = _campaign().run_batch(12)
        sharded = _campaign(workers=1).run_batch(12, workers=3)
        assert _same_records(baseline.trials, sharded.trials)

    def test_invalid_workers_rejected(self):
        with pytest.raises(FaultInjectionError, match="workers"):
            _campaign(workers=0)
        with pytest.raises(FaultInjectionError, match="workers"):
            _campaign().run_batch(10, workers=-2)

    def test_zero_trials(self):
        result = _campaign(workers=4).run_batch(0)
        assert result.n_trials == 0


# ----------------------------------------------------------------------
# Merge semantics
# ----------------------------------------------------------------------
class TestMerge:
    def test_run_with_explicit_specs_sharded(self):
        c = _campaign()
        specs = c.draw_faults(30)
        baseline = _campaign().run(0, specs=specs)
        sharded = _campaign().run(0, specs=specs, workers=3)
        assert _same_records(baseline.trials, sharded.trials)

    def test_coverage_by_fault_count_matches_unsharded(self):
        a, b = _operands()
        scheme = MultiChecksumGlobalABFT(num_checksums=2)
        base = FaultCampaign(scheme, a, b, seed=5).run_batch(
            40, faults_per_trial=3
        )
        shard = FaultCampaign(scheme, a, b, seed=5).run_batch(
            40, faults_per_trial=3, workers=4
        )
        assert shard.coverage_by_fault_count() == base.coverage_by_fault_count()
        assert shard.n_detected == base.n_detected
        assert shard.n_significant == base.n_significant
        assert shard.n_benign_alarms == base.n_benign_alarms

    def test_replication_traditional_shards_too(self):
        a, b = _operands()

        def campaign():
            return FaultCampaign(ReplicationTraditional(), a, b, seed=7)

        baseline = campaign().run_batch(16, faults_per_trial=2)
        sharded = campaign().run_batch(16, faults_per_trial=2, workers=2)
        assert _same_records(baseline.trials, sharded.trials)


# ----------------------------------------------------------------------
# Failure contract
# ----------------------------------------------------------------------
def _boom_runtime(*args, **kwargs):
    """Module-level so the pool can pickle it by reference for workers."""
    raise RuntimeError("shard exploded")


def _boom_value(*args, **kwargs):
    raise ValueError("original failure")


def _die(*args, **kwargs):
    os._exit(1)


class TestFailure:
    def test_raising_worker_surfaces_campaign_error(self, monkeypatch):
        monkeypatch.setattr(parallel, "_run_campaign_shard", _boom_runtime)
        before = len(glob.glob("/dev/shm/psm_*"))
        with pytest.raises(CampaignError, match="worker process"):
            _campaign().run_batch(12, workers=3)
        assert len(glob.glob("/dev/shm/psm_*")) == before

    def test_cause_is_chained(self, monkeypatch):
        monkeypatch.setattr(parallel, "_run_campaign_shard", _boom_value)
        with pytest.raises(CampaignError) as excinfo:
            _campaign().run_batch(8, workers=2)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_dying_worker_closes_the_pool(self, monkeypatch):
        campaign, twin = _campaign(), _campaign()
        segments, children = _segments(), _children()
        monkeypatch.setattr(parallel, "_run_campaign_shard", _die)
        with pytest.raises(CampaignError) as excinfo:
            campaign.run_batch(12, workers=2)
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        assert _segments() <= segments
        assert _children() <= children
        # The failed run drew its batch before any worker ran.
        twin.run_batch(12)
        monkeypatch.undo()
        with campaign:
            again = campaign.run_batch(12, workers=2)
        assert _same_records(again.trials, twin.run_batch(12).trials)

    def test_worker_killed_between_runs(self):
        campaign, twin = _campaign(), _campaign()
        children = _children()
        campaign.run_batch(12, workers=2)
        twin.run_batch(12)
        os.kill(min(_children() - children), signal.SIGKILL)
        deadline = time.monotonic() + 30
        # The executor's manager thread marks the pool broken on its own.
        while not campaign._pool._executor._broken:
            assert time.monotonic() < deadline, "pool never noticed the death"
            time.sleep(0.01)
        with pytest.raises(CampaignError) as excinfo:
            campaign.run_batch(12, workers=2)
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        assert _children() <= children
        twin.run_batch(12)
        with campaign:
            again = campaign.run_batch(12, workers=2)
        assert _same_records(again.trials, twin.run_batch(12).trials)


# ----------------------------------------------------------------------
# Pool lifecycle: one pool per campaign, reused until closed
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    @pytest.fixture
    def exports(self, monkeypatch):
        calls = []
        export = parallel.export_payload

        def counting(obj):
            calls.append(obj)
            return export(obj)

        monkeypatch.setattr(parallel, "export_payload", counting)
        return calls

    def test_runs_reuse_one_pool(self, exports):
        children = _children()
        with _campaign() as campaign:
            campaign.run_batch(12, workers=2)
            first = _children() - children
            campaign.run_batch(20, workers=2)
            campaign.run_batch(9, workers=1)  # in-process
            campaign.run_batch(30, workers=2)
            assert _children() - children == first
            assert len(first) == 2
        assert len(exports) == 1

    def test_parent_keeps_no_mapping_of_the_segment(self):
        with _campaign() as campaign:
            campaign.run_batch(12, workers=2)
            name = campaign._pool.payload.shm_name
            assert os.path.exists(f"/dev/shm/{name}")
            with open("/proc/self/maps") as maps:
                assert name not in maps.read()

    def test_larger_request_replaces_the_pool(self, exports):
        children = _children()
        with _campaign() as campaign:
            campaign.run_batch(12, workers=2)
            first = _children() - children
            campaign.run_batch(12, workers=3)
            second = _children() - children
        assert len(exports) == 2
        assert len(second) == 3 and not first & second

    def test_close_and_with_leave_no_child_or_segment(self):
        segments, children = _segments(), _children()
        campaign, twin = _campaign(), _campaign()
        campaign.run_batch(12, workers=2)
        assert _children() - children and _segments() - segments
        campaign.close()
        assert _children() <= children
        assert _segments() <= segments
        campaign.close()  # idempotent
        # A closed campaign stays usable: its next sharded run starts afresh.
        twin.run_batch(12)
        with campaign:
            again = campaign.run_batch(8, workers=2)
        assert _children() <= children
        assert _segments() <= segments
        assert _same_records(again.trials, twin.run_batch(8).trials)

    def test_interpreter_exit_without_close(self):
        script = textwrap.dedent(
            """
            import numpy as np
            import repro
            from repro.faults import CampaignOptions
            from repro.nn import build_runnable, runnable_input_shape

            rng = np.random.default_rng(0)
            a = (rng.standard_normal((48, 32)) * 0.5).astype(np.float16)
            b = (rng.standard_normal((32, 40)) * 0.5).astype(np.float16)
            campaign = repro.FaultCampaign(repro.get_scheme("global"), a, b, seed=1)
            campaign.run_batch(12, workers=2)
            session = repro.deploy(
                "mlp_bottom", "T4", batch=4,
                runnable=build_runnable("mlp_bottom", batch=4, seed=0),
            )
            x = np.ones(runnable_input_shape("mlp_bottom", batch=4), np.float16)
            propagation = session.propagation_campaign(
                "fc1", x=x, options=CampaignOptions(seed=3, workers=2)
            )
            propagation.run_batch(6)
            print(campaign._pool.payload.shm_name)
            print(propagation._pool.payload.shm_name)
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.split()
        assert len(names) == 2
        assert not any(os.path.exists(f"/dev/shm/{name}") for name in names)
        assert "resource_tracker" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# Sharded propagation campaigns
# ----------------------------------------------------------------------
class TestPropagationSharding:
    @pytest.fixture(scope="class")
    def setup(self):
        import repro
        from repro.faults import RecoveryPolicy
        from repro.nn import build_runnable, runnable_input_shape

        model = "mlp_bottom"
        runnable = build_runnable(model, batch=4, seed=0)
        x = (
            np.random.default_rng([0, 1])
            .standard_normal(runnable_input_shape(model, batch=4))
            * 0.5
        ).astype(np.float16)

        def make(workers=None):
            session = repro.deploy(
                model,
                "T4",
                batch=4,
                runnable=runnable,
                recovery=RecoveryPolicy(max_retries=1),
            )
            return session.propagation_campaign(
                "fc1", x=x, options=CampaignOptions(seed=3, workers=workers)
            )

        return make

    def test_sharded_records_identical(self, setup):
        baseline = setup().run_batch(10)
        sharded = setup(workers=3).run_batch(10)
        assert sharded.records == baseline.records
        assert sharded.crosstab() == baseline.crosstab()

    def test_per_call_override(self, setup):
        baseline = setup().run_batch(8)
        sharded = setup().run_batch(8, workers=2)
        assert sharded.records == baseline.records

    def test_reused_pool_runs_changed_settings(self, setup):
        with setup() as sharded:
            twin = setup()
            sharded.run_batch(8, workers=2)
            twin.run_batch(8)
            for campaign in (sharded, twin):
                campaign.recovery = None
            again = sharded.run_batch(24, workers=2)
            assert again.records == twin.run_batch(24).records
        assert again.n_detected and not again.total_retries

    def test_raising_worker_surfaces_campaign_error(self, setup, monkeypatch):
        monkeypatch.setattr(parallel, "_run_propagation_shard", _boom_runtime)
        with pytest.raises(CampaignError, match="worker process"):
            setup().run_batch(6, workers=2)


# ----------------------------------------------------------------------
# Session / API surface
# ----------------------------------------------------------------------
class TestSessionWorkers:
    def test_session_campaign_workers_passthrough(self):
        import repro

        session = repro.deploy("mlp_bottom", "T4", batch=4)
        baseline = session.campaign("fc1", seed=2).run_batch(12)
        sharded = session.campaign(
            "fc1", options=CampaignOptions(seed=2, workers=3)
        ).run_batch(12)
        assert _same_records(baseline.trials, sharded.trials)

    def test_campaign_error_is_exported(self):
        import repro

        assert repro.CampaignError is CampaignError
        assert issubclass(CampaignError, repro.ReproError)


def test_explicit_checksum_path_specs_shard():
    """Checksum-path fault sets (benign alarms) survive the shard merge."""
    from repro.faults import FaultPath

    specs = [
        FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0 + i,
                  path=FaultPath.CHECKSUM)
        for i in range(10)
    ]
    baseline = _campaign().run(0, specs=specs)
    sharded = _campaign().run(0, specs=specs, workers=2)
    assert _same_records(baseline.trials, sharded.trials)
    assert sharded.n_benign_alarms == baseline.n_benign_alarms
    assert sharded.n_benign_alarms > 0

"""Sharded campaign engine: delegation, clamping, merging, failure.

The determinism property (fixed seed => identical records at any
worker count) is pinned by hypothesis in
``tests/properties/test_sharded_determinism.py``; this file covers the
engine's machinery and edge cases: shard partitioning, the worker
primitive (requests run against the target as forked, a raised
exception is the reply, EOF or ``stop()`` ends it), ``workers=1``
delegation to the in-process path, worker counts exceeding the trial
count, merged statistics, the pool lifecycle (one pool per campaign,
reused across runs with the campaign's current settings, no thread in
the parent, gone after ``close()``, a ``with`` block or interpreter
exit), and the failure contract (a raising or dying worker surfaces one
``CampaignError``, promptly, with nothing leaked).
"""

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
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
# The worker primitive
# ----------------------------------------------------------------------
def _append(target, value):
    """Run in a worker: append ``value`` to its copy of ``target``."""
    target.append(value)
    return list(target)


def _raise_in_worker(target):
    raise ValueError("raised in the worker")


def _reply(worker):
    """The worker's next reply, waiting at most 30 s for it."""
    assert worker.conn.poll(30), "the worker never replied"
    return worker.conn.recv()


class TestWorker:
    def test_runs_requests_against_the_target_it_forked_from(self):
        target = [1]
        worker = parallel.Worker.fork(target)
        try:
            target.append(2)  # after the fork: the worker never sees it
            worker.send(_append, 3)
            assert _reply(worker) == (True, [1, 3])
            worker.send(_append, 4)
            assert _reply(worker) == (True, [1, 3, 4])
        finally:
            worker.stop()
        assert target == [1, 2]  # the worker's writes stay in its copy

    def test_a_raising_request_replies_its_exception(self):
        worker = parallel.Worker.fork([])
        try:
            worker.send(_raise_in_worker)
            ok, exc = _reply(worker)
            assert not ok
            assert isinstance(exc, ValueError)
            assert str(exc) == "raised in the worker"
            worker.send(_append, 5)  # the worker serves on
            assert _reply(worker) == (True, [5])
        finally:
            worker.stop()

    def test_closing_the_pipe_or_stop_ends_the_process(self):
        children = _children()
        # A worker inherits the parent's end of every pipe opened before
        # its fork, so the one that must read EOF is forked last.
        stopped = parallel.Worker.fork([])
        hung_up = parallel.Worker.fork([])
        assert _children() - children == {
            hung_up.process.pid, stopped.process.pid
        }
        hung_up.conn.close()
        hung_up.process.join(timeout=30)
        assert hung_up.process.exitcode == 0  # the loop read EOF and returned
        stopped.stop()
        assert stopped.process.exitcode == -signal.SIGTERM
        assert stopped.conn.closed
        assert _children() <= children


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
    """Module-level so a shard request pickles it by reference."""
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
        assert isinstance(excinfo.value.__cause__, EOFError)
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
        victim = min(_children() - children)
        (worker,) = [
            p for p in multiprocessing.active_children() if p.pid == victim
        ]
        os.kill(victim, signal.SIGKILL)
        worker.join(timeout=30)
        assert worker.exitcode == -signal.SIGKILL
        with pytest.raises(CampaignError) as excinfo:
            campaign.run_batch(12, workers=2)
        assert isinstance(excinfo.value.__cause__, (EOFError, OSError))
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
    def builds(self, monkeypatch):
        """The worker count of every pool a campaign builds."""
        calls = []
        pool = parallel.ShardPool

        def counting(owner, workers):
            calls.append(workers)
            return pool(owner, workers)

        monkeypatch.setattr(parallel, "ShardPool", counting)
        return calls

    def test_runs_reuse_one_pool(self, builds):
        children = _children()
        with _campaign() as campaign:
            campaign.run_batch(12, workers=2)
            first = _children() - children
            campaign.run_batch(20, workers=2)
            campaign.run_batch(9, workers=1)  # in-process
            campaign.run_batch(30, workers=2)
            assert _children() - children == first
            assert len(first) == 2
        assert builds == [2]

    def test_live_pool_runs_no_thread_in_the_parent(self):
        threads = threading.active_count()
        with _campaign() as campaign:
            campaign.run_batch(12, workers=2)
            assert campaign._pool.alive
            assert threading.active_count() == threads
        assert threading.active_count() == threads

    def test_reused_pool_runs_changed_settings(self):
        """A setting changed after the fork reaches the live workers."""
        with _campaign() as sharded:
            twin = _campaign()
            first = sharded.run_batch(200, workers=2)
            twin.run_batch(200)
            for campaign in (sharded, twin):
                campaign.significance_factor = 1e3
            again = sharded.run_batch(200, workers=2)
            assert _same_records(again.trials, twin.run_batch(200).trials)
        assert 0 < again.n_significant < first.n_significant

    def test_larger_request_replaces_the_pool(self, builds):
        children = _children()
        with _campaign() as campaign:
            campaign.run_batch(12, workers=2)
            first = _children() - children
            campaign.run_batch(12, workers=3)
            second = _children() - children
        assert builds == [2, 3]
        assert len(second) == 3 and not first & second

    def test_close_and_with_leave_no_child_or_segment(self):
        segments, children = _segments(), _children()
        campaign, twin = _campaign(), _campaign()
        campaign.run_batch(12, workers=2)
        assert _children() - children
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
            for owner in (campaign, propagation):
                print(*(w.process.pid for w in owner._pool._workers))
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
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 4
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
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

        def make(workers=None, policy="guided"):
            session = repro.deploy(
                model,
                "T4",
                policy=policy,
                batch=4,
                runnable=runnable,
                recovery=RecoveryPolicy(max_retries=1),
            )
            return session.propagation_campaign(
                "fc1", x=x, options=CampaignOptions(seed=3, workers=workers)
            )

        return make

    # At guided@int8 every layer of mlp_bottom deploys an INT8 scheme, so
    # the workers replay on the downstream executors and weight scales of
    # the quantized pipeline.
    @pytest.mark.parametrize("policy", ["guided", "guided@int8"])
    def test_sharded_records_identical(self, setup, policy):
        baseline = setup(policy=policy).run_batch(10)
        sharded = setup(workers=3, policy=policy).run_batch(10)
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

"""SessionServer: requests served from worker processes.

Serving correctness is defined against serial execution: a served
result must equal ``session.run``'s for the same request — output
bytes, and every layer's verdict, specs, recovery counts and FP16
output — under the session's current recovery policy.  A pass that
raises in a worker raises the same exception from ``handle``; a worker
that dies fails its request and the next one is served by a fresh
pool; and no worker outlives the server.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, RecoveryError, ServingError
from repro.faults import FaultKind, FaultSpec, RecoveryPolicy
from repro.fleet import ServingReport, SessionServer, serve_session
from repro.gemm.executor import EXECUTION_STATS
from repro.nn import build_runnable, runnable_input_shape

SRC = Path(repro.__file__).resolve().parents[1]

#: A fault every mlp_bottom layer's check detects.
FAULT = FaultSpec(row=1, col=3, kind=FaultKind.ADD, value=200.0)
TRANSIENT = RecoveryPolicy(max_retries=2, fault_model="transient")


@pytest.fixture(scope="module")
def session():
    return repro.deploy("mlp_bottom", "T4", batch=16)


def numeric_session(recovery=None):
    """A numeric mlp_bottom session and one input for it."""
    runnable = build_runnable("mlp_bottom", batch=4, seed=3)
    deployed = repro.deploy(
        "mlp_bottom", "T4", batch=4, runnable=runnable, recovery=recovery
    )
    x = (
        np.random.default_rng([3, 1])
        .standard_normal(runnable_input_shape("mlp_bottom", batch=4))
        * 0.5
    ).astype(np.float16)
    return deployed, x


def serve(server, *requests):
    """Serve ``(x, faults)`` requests concurrently; results in order."""

    async def drive():
        return await asyncio.gather(
            *(server.handle(x, faults=faults) for x, faults in requests)
        )

    return asyncio.run(drive())


def worker_clean_gemms() -> int:
    """Run in a serving worker: that process's clean-GEMM count."""
    return EXECUTION_STATS.gemms


def new_children(before):
    return set(multiprocessing.active_children()) - before


def assert_matches_serial(served, serial):
    assert served.output.tobytes() == serial.output.tobytes()
    assert len(served.layer_outcomes) == len(serial.layer_outcomes)
    for got, want in zip(served.layer_outcomes, serial.layer_outcomes):
        assert (got.name, got.scheme) == (want.name, want.scheme)
        assert got.outcome.verdict == want.outcome.verdict
        assert got.outcome.injected == want.outcome.injected
        assert (got.retries, got.recovered, got.degraded) == (
            want.retries, want.recovered, want.degraded,
        )
        assert got.outcome.c.tobytes() == want.outcome.c.tobytes()
        with pytest.raises(ServingError, match="stays in the worker"):
            got.outcome.c_accumulator


class TestReports:
    def test_report_counts_and_latencies(self, session):
        report = serve_session(session, 12, concurrency=4, max_workers=2)
        assert report.requests == 12
        assert report.concurrency == 4
        assert report.requests_per_s > 0
        assert 0 < report.p50_ms <= report.p99_ms
        assert report.detected_requests == 0

    def test_render_mentions_throughput_and_tail(self, session):
        report = serve_session(session, 4, concurrency=2, max_workers=2)
        text = report.render()
        assert "req/s" in text
        assert "p99" in text

    def test_serving_is_clean_pass_correct(self, session):
        serial = session.run().output
        with SessionServer(session, max_workers=4) as server:
            results = serve(server, *[(None, None)] * 8)
        for result in results:
            np.testing.assert_array_equal(result.output, serial)

    def test_shared_prepared_state_across_requests(self):
        fresh = repro.deploy("mlp_bottom", "T4", batch=16)
        # The worker forks on the first request, inheriting this count.
        before = EXECUTION_STATS.gemms
        with SessionServer(fresh, max_workers=1) as server:
            server.serve_blocking(10, concurrency=5)
            in_worker = server._pool.submit(worker_clean_gemms).result()
        # One clean GEMM per layer in the worker that served all ten
        # requests — not one per request.
        assert in_worker - before == len(fresh.plan)

    def test_faulty_traffic_is_counted(self, session):
        layer = session.plan.layer_names[0]
        spec = FaultSpec(row=0, col=0, kind=FaultKind.BITFLIP_FP32, bit=24)

        async def drive(server):
            clean = [server.handle() for _ in range(3)]
            faulty = [
                server.handle(faults={layer: [spec]}) for _ in range(2)
            ]
            await asyncio.gather(*clean, *faulty)
            return await server.serve(2, concurrency=2)

        with SessionServer(session, max_workers=2) as server:
            report = asyncio.run(drive(server))
        # The batch report covers only its own requests...
        assert report.requests == 2
        assert report.detected_requests == 0
        # ...while the faulty singles were tallied on the server.
        assert server._detected == 2

    def test_input_iterables_are_served(self):
        fleet = repro.deploy_fleet(["mlp_bottom"], ["T4"], batch=16)
        session = fleet.session("mlp_bottom", "T4")
        report = serve_session(
            session, [None, None, None], concurrency=2, max_workers=2
        )
        assert report.requests == 3


class TestServedResults:
    def test_numeric_requests_match_serial(self):
        deployed, x = numeric_session(recovery=TRANSIENT)
        requests = [(x, None), (x, {"fc1": [FAULT]}), (x, {"fc2": [FAULT]})]
        with SessionServer(deployed, max_workers=2) as server:
            served = serve(server, *requests)
        for result, (inputs, faults) in zip(served, requests):
            assert_matches_serial(result, deployed.run(inputs, faults=faults))
        assert all(r.recovered and r.total_retries >= 1 for r in served[1:])

    def test_layer_gemm_requests_match_serial(self, session):
        layer = session.plan.layer_names[1]
        requests = [(None, None), (None, {layer: [FAULT]})]
        with SessionServer(session, max_workers=2) as server:
            served = serve(server, *requests)
        for result, (_, faults) in zip(served, requests):
            assert_matches_serial(result, session.run(faults=faults))
        assert served[1].detected and not served[1].recovered

    def test_policy_assigned_after_start_applies(self):
        deployed, x = numeric_session(recovery=None)
        faulted = {"fc1": [FAULT]}
        with SessionServer(deployed, max_workers=1) as server:
            serve(server, (x, None))  # the worker forks without a policy
            deployed.recovery = TRANSIENT
            (served,) = serve(server, (x, faulted))
        serial = deployed.run(x, faults=faulted)
        assert served.recovered and serial.recovered
        assert served.total_retries == serial.total_retries >= 1
        assert_matches_serial(served, serial)

    def test_policy_cleared_after_start_applies(self):
        deployed, x = numeric_session(recovery=TRANSIENT)
        faulted = {"fc1": [FAULT]}
        with SessionServer(deployed, max_workers=1) as server:
            serve(server, (x, None))  # the worker forks with a policy
            deployed.recovery = None
            (served,) = serve(server, (x, faulted))
        serial = deployed.run(x, faults=faulted)
        assert served.detected and not served.recovered
        assert served.total_retries == serial.total_retries == 0
        assert_matches_serial(served, serial)


class TestFailures:
    def test_unknown_fault_layer_raises_like_serial(self, session):
        bad = {"no_such_layer": [FAULT]}
        with pytest.raises(ConfigurationError) as serial:
            session.run(faults=bad)
        with SessionServer(session, max_workers=1) as server:
            with pytest.raises(ConfigurationError) as served:
                serve(server, (None, bad))
            # The pass failed, not the worker: the next request serves.
            (clean,) = serve(server, (None, None))
        assert type(served.value) is type(serial.value)
        assert_matches_serial(clean, session.run())

    def test_exhausted_budget_raises_recovery_error(self):
        policy = RecoveryPolicy(
            max_retries=1, fault_model="sticky", on_exhausted="raise"
        )
        deployed, x = numeric_session(recovery=policy)
        faulted = {"fc0": [FAULT]}
        with pytest.raises(RecoveryError) as serial:
            deployed.run(x, faults=faulted)
        with SessionServer(deployed, max_workers=1) as server:
            with pytest.raises(RecoveryError) as served:
                serve(server, (x, faulted))
        assert type(served.value) is type(serial.value)

    def test_killed_worker_fails_one_request_then_pool_restarts(self, session):
        before = set(multiprocessing.active_children())
        with SessionServer(session, max_workers=1) as server:
            serve(server, (None, None))
            (worker,) = new_children(before)
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(ServingError) as lost:
                serve(server, (None, None))
            assert isinstance(lost.value.__cause__, BrokenProcessPool)
            (after,) = serve(server, (None, None))
            (fresh,) = new_children(before)
            assert fresh.pid != worker.pid
        assert_matches_serial(after, session.run())
        assert not new_children(before)


class TestLifecycle:
    def test_no_worker_outlives_close_or_with(self, session):
        before = set(multiprocessing.active_children())
        with SessionServer(session, max_workers=2) as server:
            serve(server, *[(None, None)] * 4)
            assert len(new_children(before)) == 2
        assert not new_children(before)

        server = SessionServer(session, max_workers=2)
        serve(server, *[(None, None)] * 4)
        server.close()
        assert not new_children(before)
        server.close()  # idempotent

        serve_session(session, 4, concurrency=2, max_workers=2)
        assert not new_children(before)

    def test_dropped_server_leaves_no_worker(self, tmp_path):
        script = textwrap.dedent(
            """
            import json, multiprocessing
            import repro

            session = repro.deploy("mlp_bottom", "T4", batch=16)
            dropped = repro.SessionServer(session, max_workers=2)
            dropped.serve_blocking(4, concurrency=2)
            kept = repro.SessionServer(session, max_workers=2)
            kept.serve_blocking(4, concurrency=2)
            print(json.dumps([p.pid for p in multiprocessing.active_children()]))
            del dropped  # neither server is closed
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        pids = json.loads(done.stdout.strip().splitlines()[-1])
        assert len(pids) == 4
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestValidation:
    def test_bad_concurrency_rejected(self, session):
        with SessionServer(session) as server:
            with pytest.raises(ConfigurationError, match="concurrency"):
                server.serve_blocking(4, concurrency=0)

    def test_bad_request_count_rejected(self, session):
        with SessionServer(session) as server:
            with pytest.raises(ConfigurationError, match="request count"):
                server.serve_blocking(0)

    def test_empty_iterable_rejected(self, session):
        with SessionServer(session) as server:
            with pytest.raises(ConfigurationError, match="no requests"):
                server.serve_blocking([])

    def test_bad_worker_count_rejected(self, session):
        with pytest.raises(ConfigurationError, match="max_workers"):
            SessionServer(session, max_workers=0)

    def test_report_is_frozen(self):
        report = ServingReport(
            requests=1, concurrency=1, total_s=1.0,
            requests_per_s=1.0, p50_ms=1.0, p99_ms=1.0,
        )
        with pytest.raises(AttributeError):
            report.requests = 2

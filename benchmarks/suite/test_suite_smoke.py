"""Smoke test of the benchmark suite.

Runs all five workloads at ``--scale smoke`` with ``--trace 1`` (an
untraced and a traced pass per workload) and checks the contract the
benchmark promises: every ``BENCHMARK.json`` metric is printed with its
unit, nothing failed, every span tree's self times sum to its root, and
each layer the workload design says is bypassed stays (almost) idle.  A
second test races threads through one tracer and checks no span is lost.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

from tracer import Tracer

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

#: Layers a workload never exercises in its timed sweeps (README table).
BYPASSED = {
    "plan": [
        "gemm.multiply",
        "abft.cache_get",
        "abft.inject_batch",
        "abft.struck_reductions",
        "abft.verdict",
        "faults.sites",
        "faults.classify",
    ],
    "campaign": [
        "api.deploy",
        "nn.build_model",
        "gpu.time_kernel",
        "gemm.multiply",
        "gemm.im2col",
        "abft.prepare",
        "abft.operand_reductions",
        "faults.sharded",
        "faults.export_payload",
        "faults.propagation",
        "faults.replay",
        "nn.inference.run",
        "faults.recovery",
    ],
    "sdc": ["api.deploy", "nn.build_model", "faults.draw", "faults.run_batch", "fleet.handle"],
    "serve": ["core.select_for_model", "core.profile", "faults.draw", "faults.run_batch"],
}


def test_suite_smoke(tmp_path):
    out = tmp_path / "smoke.json"
    cmd = [
        sys.executable,
        str(SUITE / "run.py"),
        "--scale",
        "smoke",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--out",
        str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = proc.stdout.splitlines()

    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    printed = {(line.split()[0], line.split()[-1]) for line in lines if line.startswith("  ")}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            assert (metric["name"], metric["unit"]) in printed, metric["name"]

    document = json.loads(out.read_text())
    assert {"nproc", "workers", "python", "numpy", "blas"} <= set(document["stamp"]["shape"])
    for name, record in document["workloads"].items():
        assert record["failed"] == 0, name
        check = record["trace_check"]
        assert abs(check["self_sum_s"] - check["root_sum_s"]) <= 0.05 * check["root_sum_s"]
        assert (tmp_path / f"smoke.{name}.spans.json").is_file()
        layers = record["per_layer"]
        traced_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        traced_s += layers["unattributed_s"]
        for layer in BYPASSED.get(name, ()):
            idle = layers[f"{layer}.calls"] == 0 or layers[f"{layer}.self_s"] <= 0.01 * traced_s
            assert idle, f"{layer} is not bypassed on {name}"


def test_tracer_counts_every_span_under_thread_contention():
    tracer = Tracer(max_spans=100)
    threads, per_thread = 8, 400

    def work():
        for _ in range(per_thread):
            tracer.enter("leaf")
            tracer.count("leaf.items")
            tracer.exit()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.sweep("root"):
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    summary = tracer.summary()
    assert summary["stats"]["leaf"][0] == threads * per_thread
    assert summary["counts"]["leaf.items"] == threads * per_thread
    assert summary["counts"]["trace.dropped_spans"] == threads * (per_thread - 100)

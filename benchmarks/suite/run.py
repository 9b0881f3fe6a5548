#!/usr/bin/env python3
"""Benchmark suite: host time and modeled GPU overhead on five workloads.

Run from the repository root::

    python3 benchmarks/suite/run.py --seed 17 --out run.json
    python3 benchmarks/suite/run.py --workload campaign --seed 3 --seconds 12 --trace 1
    python3 benchmarks/suite/run.py --compare A*.json -- B*.json

Every workload pass runs in a fresh process (``child.py``), one after
another, so set-up time and peak RSS are clean.  An untraced run reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` adds a
second, traced pass per workload and reports the per-layer metrics.
The run prints every metric with its unit, checks outputs, writes the
machine-stamped results to ``--out``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

#: Extra processes per untraced run that only set up, so ``setup_s`` is
#: a median of several clean starts rather than one.
SETUP_PROBES = 4
#: Hard limit for one workload pass.
CHILD_TIMEOUT_S = 150


class RunError(Exception):
    """A workload pass failed to produce its measurements."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(workload: str, args: argparse.Namespace, workers: int, **extra: object) -> dict:
    """One fresh measurement process; returns its JSON result."""
    options = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "workers": workers,
        **extra,
    }
    cmd = [sys.executable, str(SUITE / "child.py")]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: pass exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload}: pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _rates(result: dict) -> list[float]:
    return [n / s for s, n in zip(result["sweep_s"], result["sweep_items"])]


def end_to_end(result: dict, setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(_rates(result)),
        "peak_rss_mb": result["peak_rss_mb"],
        "modeled_overhead_pct": result["modeled"]["modeled_overhead_pct"],
        "modeled_reduction_x": result["modeled"]["modeled_reduction_x"],
    }


def per_layer(traced: dict, untraced: dict, spec: dict) -> dict:
    found = dict(traced["layers"])
    for name in ("gpu.modeled_guided_ms", "gpu.modeled_global_ms"):
        found[name] = traced["modeled"][name]
    found["faults.coverage"] = traced["outcomes"].get("coverage", 0.0)
    found["faults.sdc_rate"] = traced["outcomes"].get("sdc_rate", 0.0)
    untraced_rate = statistics.median(_rates(untraced))
    found["trace_overhead_frac"] = untraced_rate / statistics.median(_rates(traced)) - 1
    layers = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in found:
            layers[name] = found[name]
        elif name.endswith((".calls", ".self_s")):
            layers[name] = 0.0  # the workload never entered this span
    return layers


def run_workload(name: str, args: argparse.Namespace, workers: int, spec: dict) -> dict:
    probes = 0 if args.trace or args.scale == "smoke" else SETUP_PROBES
    setup_runs = [run_child(name, args, workers, mode="setup") for _ in range(probes)]
    # A traced run splits its time between an untraced and a traced pass.
    seconds = args.seconds / 2 if args.trace else args.seconds
    main = run_child(name, args, workers, mode="measure", seconds=seconds)
    setups = [r["setup_s"] for r in setup_runs] + [main["setup_s"]]
    record = {
        "item": main["item"],
        "sweeps": len(main["sweep_s"]),
        "sweep_s": main["sweep_s"],
        "sweep_items": main["sweep_items"],
        "setup_samples": setups,
        "attempted": main["attempted"],
        "failed": main["failed"] + sum(r["failed"] for r in setup_runs),
        "metrics": end_to_end(main, setups),
        "stamp": main["stamp"],
    }
    if args.trace:
        extra = {}
        if args.out is not None:
            extra["spans"] = args.out.with_name(f"{args.out.stem}.{name}.spans.json")
        traced = run_child(name, args, workers, mode="measure", trace=1, seconds=seconds, **extra)
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        record["per_layer"] = per_layer(traced, main, spec)
        record["trace_check"] = traced["layers"]["_check"]
    for kind, key in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
        names = [m["name"] for m in spec[kind]]
        missing = [m for m in names if key in record and m not in record[key]]
        if missing:
            raise RunError(f"{name}: no value for {', '.join(missing)}")
    return record


def print_report(name: str, record: dict, spec: dict, workers: int) -> None:
    print(
        f"== {name}: {record['sweeps']} timed sweeps, item = {record['item']}, "
        f"workers = {workers}, attempted {record['attempted']}, failed {record['failed']}"
    )
    for kind, key in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
        for metric in spec[kind]:
            if key in record:
                value = record[key][metric["name"]]
                print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if "--compare" in argv:
        from compare import compare_main

        return compare_main(argv, spec)

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workers = min(usable_cpus(), 4)
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in selected:
            results[name] = run_workload(name, args, workers, spec)
            print_report(name, results[name], spec, workers)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out is not None:
        stamp = next(iter(results.values()))["stamp"]
        shape = {"nproc": os.cpu_count(), "usable_cpus": usable_cpus(), "workers": workers}
        shape.update(stamp)
        document = {
            "stamp": {"shape": shape, "seed": args.seed, "commit": git_commit()},
            "scale": args.scale,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": results,
        }
        args.out.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.out}")

    kind, key = ("per_layer", "per_layer") if args.trace else ("end_to_end", "metrics")
    prefix = len(selected) > 1
    metrics = {
        (f"{name}.{m['name']}" if prefix else m["name"]): {
            "value": record[key][m["name"]],
            "unit": m["unit"],
        }
        for name, record in results.items()
        for m in spec[kind]
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload pass in a fresh process: setup, timed sweeps, oracles.

``run.py`` starts this script once per pass so set-up time and peak RSS
are those of a clean process::

    python3 benchmarks/suite/child.py --workload plan --seed 17 --seconds 8

``--mode setup`` stops after set-up and warm-up (a set-up time sample);
``--trace 1`` wraps repro's layers before set-up and records spans
during the timed sweeps.  The last line of standard output is one JSON
object with the raw measurements.
"""

import time

# Set-up time counts from here: before NumPy or repro is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]

#: Fewest timed sweeps per pass, whatever ``--seconds`` says.
MIN_SWEEPS = 3

def _import_repro() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not from this checkout")


def _stamp() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _modeled(rows: list) -> dict:
    """Paper-side metrics over ``(baseline, guided, global)`` modeled seconds.

    The reduction factor (global overhead over guided overhead) exists
    only where the guided overhead is positive; a unit whose protected
    kernel models at or below its baseline is left out of the mean.
    """
    from repro import overhead_percent, reduction_factor

    guided = [overhead_percent(g, b) for b, g, _ in rows]
    uniform = [overhead_percent(u, b) for b, _, u in rows]
    factors = [reduction_factor(u, g) for g, u in zip(guided, uniform) if g > 0]
    return {
        "modeled_overhead_pct": statistics.fmean(guided),
        "modeled_reduction_x": math.exp(statistics.fmean(math.log(f) for f in factors)),
        "gpu.modeled_guided_ms": sum(g for _, g, _ in rows) * 1e3,
        "gpu.modeled_global_ms": sum(u for _, _, u in rows) * 1e3,
    }


def layer_metrics(summary: dict, sweeps: int, root: str) -> dict:
    """Per-sweep layer numbers from the tracer's merged aggregates.

    Every recorded span gives ``<span>.calls`` and ``<span>.self_s``; a
    span the workload never entered has no entry (``run.py`` reads it as
    zero).
    """
    stats, counts = summary["stats"], summary["counts"]

    def stat(name: str, index: int) -> float:
        return stats.get(name, (0, 0.0, 0.0))[index]

    out = {}
    for name, (calls, self_s, _) in stats.items():
        out[f"{name}.calls"] = calls / sweeps
        out[f"{name}.self_s"] = self_s / sweeps
    gets = stat("abft.cache_get", 0)
    recoveries = stat("faults.recovery", 0)
    out["abft.cache_get.wait_s"] = stat("abft.cache_get", 2) / sweeps
    out["abft.cache.hit_ratio"] = counts.get("abft.cache.hits", 0) / gets if gets else 0.0
    out["abft.inject_batch.trials"] = counts.get("abft.inject_batch.trials", 0) / sweeps
    out["faults.sharded.wait_s"] = stat("faults.sharded.wait", 1) / sweeps
    out["faults.recovery.retries"] = counts.get("faults.recovery.retries", 0) / sweeps
    out["faults.recovery.success_ratio"] = (
        counts.get("faults.recovery.recovered", 0) / recoveries if recoveries else 0.0
    )
    handled = [
        (end - start, (picked - start) if picked else 0.0)
        for _, start, end, picked in summary["detached"]
    ]
    out["fleet.handle.calls"] = len(handled) / sweeps
    out["fleet.handle.queue_wait_s"] = sum(wait for _, wait in handled) / sweeps
    latencies = sorted(total for total, _ in handled)
    for q in (50, 99):
        rank = round(q / 100 * (len(latencies) - 1))
        out[f"fleet.p{q}_ms"] = latencies[rank] * 1e3 if latencies else 0.0
    out["unattributed_s"] = stat(root, 1) / sweeps
    self_sum = sum(entry[1] for entry in stats.values())
    out["_check"] = {
        "self_sum_s": self_sum,
        "root_sum_s": summary["root_s"],
        "dropped_spans": counts.get("trace.dropped_spans", 0),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "setup"), default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    _import_repro()
    from tracer import Tracer, instrument
    from workloads import WORKLOADS, Ops

    tracer = Tracer() if args.trace else None
    instrumentation = instrument(tracer) if tracer else None
    if instrumentation is not None and instrumentation.missing:
        print(f"not traced (absent): {', '.join(instrumentation.missing)}", file=sys.stderr)
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.workers)
    warm, timed, checks = Ops(), Ops(), Ops()
    try:
        workload.setup()
        workload.warmup(warm)
        setup_s = time.perf_counter() - _T0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "failed": warm.failed}))
            return 0

        root = f"{args.workload}.sweep"
        sweeps: list[tuple[float, int]] = []
        deadline = time.perf_counter() + args.seconds
        while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
            start = time.perf_counter()
            with tracer.sweep(root) if tracer else nullcontext():
                items = workload.sweep(timed)
            sweeps.append((time.perf_counter() - start, items))
        if instrumentation is not None:
            instrumentation.restore()
        # The workload's own peak, before the oracles allocate theirs.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            workload.oracles(checks)
        except Exception:
            checks.fail()
    finally:
        workload.close()

    result = {
        "workload": args.workload,
        "item": workload.item,
        "setup_s": setup_s,
        "sweep_s": [s for s, _ in sweeps],
        "sweep_items": [n for _, n in sweeps],
        "attempted": warm.attempted + timed.attempted + checks.attempted,
        "failed": warm.failed + timed.failed + checks.failed,
        "peak_rss_mb": peak_rss_mb,
        "modeled": _modeled(workload.modeled()),
        "outcomes": workload.outcomes,
        "stamp": _stamp(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.summary(), len(sweeps), root)
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.spans()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

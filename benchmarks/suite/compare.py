"""``run.py --compare A*.json -- B*.json``: two run sets, metric by metric.

For every (workload, end-to-end metric) present on both sides, prints
each side's median and quartiles over its result files.  A pair is
*unresolved* when either side's spread (quartile distance over median)
is wider than the metric's bound, and *REGRESSED* when side B's median
is worse than side A's by more than the bound — which makes the exit
code non-zero.  Results taken on different machine shapes (core count,
worker count, Python, NumPy, BLAS, thread settings) are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def _split(argv: list[str]) -> tuple[list[Path], list[Path]]:
    rest = argv[argv.index("--compare") + 1 :]
    if "--" not in rest:
        raise ValueError("usage: run.py --compare A.json [A.json ...] -- B.json [B.json ...]")
    cut = rest.index("--")
    side_a, side_b = rest[:cut], rest[cut + 1 :]
    if not side_a or not side_b:
        raise ValueError("each side of --compare needs at least one result file")
    return [Path(p) for p in side_a], [Path(p) for p in side_b]


def compare_main(argv: list[str], spec: dict) -> int:
    try:
        paths_a, paths_b = _split(argv)
        runs_a = [json.loads(p.read_text()) for p in paths_a]
        runs_b = [json.loads(p.read_text()) for p in paths_b]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    shapes = {}
    for path, run in zip(paths_a + paths_b, runs_a + runs_b):
        shapes.setdefault(json.dumps(run["stamp"]["shape"], sort_keys=True), []).append(path)
    if len(shapes) > 1:
        print("refusing to compare results from different machine shapes:", file=sys.stderr)
        for shape, paths in shapes.items():
            print(f"  {shape}: {', '.join(map(str, paths))}", file=sys.stderr)
        return 2

    workloads = [
        w["name"]
        for w in spec["workloads"]
        if all(w["name"] in r["workloads"] for r in runs_a + runs_b)
    ]
    print(f"A: {len(runs_a)} run(s)   B: {len(runs_b)} run(s)   (median [q1, q3])")
    regressed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            qa = _quartiles([r["workloads"][workload]["metrics"][name] for r in runs_a])
            qb = _quartiles([r["workloads"][workload]["metrics"][name] for r in runs_b])
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            worse = change if metric["better"] == "lower" else -change
            flags = []
            if worse > bound:
                flags.append("REGRESSED")
                regressed = True
            elif worse < -bound:
                flags.append("improved")
            if max(_spread(qa), _spread(qb)) > bound:
                flags.append("unresolved")
            print(
                f"{workload:<17} {name:<22} "
                f"A {qa[1]:>11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                f"B {qb[1]:>11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
                f"{change:+7.2%} (bound {bound:.0%}) {' '.join(flags) or 'ok'}"
            )
    return 1 if regressed else 0

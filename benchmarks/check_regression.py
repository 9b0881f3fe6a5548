#!/usr/bin/env python3
"""CI perf-regression gate for the prepared/batched execution engine.

Compares a freshly generated ``bench_perf_prepared.py`` report against
the committed ``BENCH_prepared.json`` baseline and exits non-zero when
the engine regressed, so CI *fails* on a perf regression instead of
merely archiving an artifact.

Absolute trials/sec depends on the runner, so campaign throughput is
compared through the machine-normalized **speedup** — each prepared
path's throughput in units of the direct path's, both measured in the
same run on the same machine.  Every ``(scheme, path)`` pair the
baseline commits to is gated independently — each fails the gate when
its speedup drops more than ``--threshold`` (default 25%) below the
committed value, so a regression confined to one path of one scheme
cannot hide behind the others.  The inference section gates on the structural property (zero
warm-pass weight-side reductions: the m-independent cache did its job)
rather than on noisy small-latency ratios.

When ``$GITHUB_STEP_SUMMARY`` is set (it is, in Actions), the per
scheme/path comparison is also appended there as a markdown table, so
a regression is readable from the run's Summary page without digging
through logs.

The speedup normalizes machine *speed* away but not machine *shape*:
interpreter version and NumPy build shift the Python-bound direct path
and the NumPy-bound batched path differently.  The committed baseline
is therefore part of the CI environment contract — regenerate and
re-commit it (``bench_perf_prepared.py`` with no ``--output``) whenever
the runner image, Python, or NumPy pins change, and widen
``--threshold`` rather than deleting the gate if a runner fleet proves
noisier than 25%.

Usage (what CI runs)::

    python benchmarks/bench_perf_prepared.py --output bench_ci.json
    python benchmarks/check_regression.py --bench bench_ci.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_THRESHOLD = 0.25

#: Columns of the per-(scheme, path) comparison, shared by the console
#: log and the markdown step summary.
_COLUMNS = ("scheme", "path", "speedup", "baseline", "floor", "status")


def _iter_paths(row: dict):
    """``(path_name, path_row)`` pairs of one scheme's campaign row.

    Reads the per-path table; falls back to the flat pre-sparse schema
    (a single ``speedup``) so the gate still runs against an old
    baseline during a transition.
    """
    paths = row.get("paths")
    if paths:
        return sorted(paths.items())
    return [("prepared", {"speedup": row["speedup"]})]


def check(
    bench: dict, baseline: dict, threshold: float
) -> tuple[list[str], list[dict]]:
    """Gate violations and per-(scheme, path) comparison rows."""
    failures: list[str] = []
    rows: list[dict] = []
    for scheme, base_row in sorted(baseline.get("campaign", {}).items()):
        row = bench.get("campaign", {}).get(scheme)
        min_cores = base_row.get("min_cores")
        if min_cores and ((row or {}).get("cores") or 0) < min_cores:
            # Multiprocess rows (the sharded campaign engine) measure
            # aggregate throughput across physical cores; comparing an
            # 8-way fan-out's committed speedup against a run on a
            # smaller box would always "regress".  The baseline pins
            # the machine shape the row is meaningful on.
            cores = (row or {}).get("cores") or 0
            print(
                f"{scheme:>18s}: skipped — runner has {cores} cores, "
                f"row requires >= {min_cores} [skipped]"
            )
            for path, base_path in _iter_paths(base_row):
                rows.append({
                    "scheme": scheme,
                    "path": path,
                    "speedup": None,
                    "baseline": base_path["speedup"],
                    "floor": None,
                    "status": f"skipped ({cores} < {min_cores} cores)",
                })
            continue
        if row is None:
            failures.append(f"{scheme}: missing from the benchmark output")
            continue
        if row["trials"] != base_row["trials"]:
            failures.append(
                f"{scheme}: benchmark ran {row['trials']} trials but the "
                f"baseline committed {base_row['trials']} — speedups are "
                f"only comparable at equal amortization; rerun without "
                f"--quick / with --trials {base_row['trials']}"
            )
            continue
        bench_paths = dict(_iter_paths(row))
        for path, base_path in _iter_paths(base_row):
            bench_path = bench_paths.get(path)
            if bench_path is None and path == "prepared" and "speedup" in row:
                # Flat pre-sparse baseline vs per-path bench output: the
                # bench still emits the engine-default flat speedup, so
                # the transition gates on that instead of hard-failing.
                bench_path = {"speedup": row["speedup"]}
            if bench_path is None:
                failures.append(
                    f"{scheme}/{path}: missing from the benchmark output"
                )
                continue
            floor = base_path["speedup"] * (1.0 - threshold)
            ok = bench_path["speedup"] >= floor
            rows.append({
                "scheme": scheme,
                "path": path,
                "speedup": bench_path["speedup"],
                "baseline": base_path["speedup"],
                "floor": floor,
                "status": "ok" if ok else "REGRESSED",
            })
            print(
                f"{scheme:>18s}/{path:<6s}: speedup "
                f"{bench_path['speedup']:6.1f}x (baseline "
                f"{base_path['speedup']:6.1f}x, floor {floor:6.1f}x) "
                f"[{rows[-1]['status']}]"
            )
            if not ok:
                failures.append(
                    f"{scheme}/{path}: speedup {bench_path['speedup']:.2f}x "
                    f"fell more than {threshold:.0%} below the committed "
                    f"{base_path['speedup']:.2f}x"
                )

    inference = bench.get("inference")
    if inference is not None:
        reductions = inference.get("warm_weight_reductions")
        if reductions != 0:
            failures.append(
                f"inference: warm passes performed {reductions} weight-side "
                f"reductions; the m-independent weight cache is not amortizing"
            )
        else:
            print(f"{'inference':>18s}: warm-pass weight reductions 0 [ok]")
    return failures, rows


def render_summary(rows: list[dict], failures: list[str]) -> str:
    """Markdown summary of the gate run for the Actions UI."""
    lines = [
        "### Prepared-engine perf gate",
        "",
        "| " + " | ".join(_COLUMNS) + " |",
        "| " + " | ".join("---" for _ in _COLUMNS) + " |",
    ]
    for row in rows:
        if row["status"] == "ok":
            status = "✅ ok"
        elif row["status"] == "REGRESSED":
            status = "❌ REGRESSED"
        else:
            status = f"⏭️ {row['status']}"

        def fmt(value):
            return "—" if value is None else f"{value:.1f}x"

        lines.append(
            f"| {row['scheme']} | {row['path']} | {fmt(row['speedup'])} "
            f"| {fmt(row['baseline'])} | {fmt(row['floor'])} | {status} |"
        )
    if failures:
        lines += ["", "**Gate FAILED:**", ""]
        lines += [f"- {failure}" for failure in failures]
    else:
        lines += ["", "Gate passed: no scheme/path regressed."]
    return "\n".join(lines) + "\n"


def write_step_summary(rows: list[dict], failures: list[str]) -> None:
    """Append the markdown table to ``$GITHUB_STEP_SUMMARY`` if set."""
    target = os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(render_summary(rows, failures))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", type=pathlib.Path, required=True,
                        help="freshly generated benchmark report")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_prepared.json",
                        help="committed baseline (default: repo root)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fractional speedup drop that fails the gate "
                             f"(default {DEFAULT_THRESHOLD})")
    args = parser.parse_args()
    if not 0.0 < args.threshold < 1.0:
        parser.error(f"--threshold must be in (0, 1), got {args.threshold}")

    bench = json.loads(args.bench.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures, rows = check(bench, baseline, args.threshold)
    write_step_summary(rows, failures)
    if failures:
        print("\nperf-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nperf-regression gate passed.")


if __name__ == "__main__":
    main()

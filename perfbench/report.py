"""Repeat the benchmark and summarise each set of runs.

Usage::

    python3 perfbench/report.py --runs 10 --sets 2
    python3 perfbench/report.py --workload rebac-check --runs 5 --layers

Runs ``run.py`` ``--runs`` times per set on each workload, with seeds
``1 .. runs`` in every set, so that two sets differ only in timing,
and prints, per metric, each set's median and quartiles, the spread
(quartile distance over median) against the metric's bound in
BENCHMARK.json, and how far each later set's median moved from the
first's (its drift; positive is higher).  ``--layers`` makes traced runs too and prints every per-layer
metric's median, and the tracing overhead: the traced ``ops_per_s``
against the untraced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run; returns ``{metric: value}`` from its final JSON line,
    the unbounded end-to-end figures included."""
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--all-metrics", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{completed.stderr[-3000:]}")
    outcome = json.loads(lines[-1])
    if not outcome["correct"] or outcome["failed"]:
        print(f"  ! {workload} seed {seed}: correct={outcome['correct']} "
              f"failed={outcome['failed']}/{outcome['attempted']}")
    values = {name: metric["value"]
              for name, metric in outcome["metrics"].items()}
    values["failed_share"] = outcome["failed"] / outcome["attempted"]
    headline = ", ".join(f"{name}={values[name]:.4g}"
                         for name in list(outcome["metrics"])[:4])
    print(f"  {workload} seed {seed}: {headline}", flush=True)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(workload: str, sets: list[list[dict]], bounds: dict) -> None:
    names = sorted({name for runs in sets for run in runs for name in run})
    print(f"\n{workload}: {len(sets)} set(s) of {len(sets[0])} runs")
    print(f"  {'metric':32s} {'set':>3s} {'q1':>11s} {'median':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s} {'drift':>7s}")
    for name in names:
        first_median = None
        for index, runs in enumerate(sets):
            values = [run[name] for run in runs if name in run]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            drift = ""
            if first_median is None:
                first_median = median
            elif first_median:
                drift = f"{(median - first_median) / first_median:+7.3f}"
            bound = bounds.get(name)
            print(f"  {name:32s} {index + 1:3d} {q1:11.4f} {median:11.4f} "
                  f"{q3:11.4f} {spread:7.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}':>6s} {drift}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads + ["all"],
                        default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--layers", action="store_true",
                        help="also make traced runs and report the layers")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    chosen = workloads if args.workload == "all" else [args.workload]
    for workload in chosen:
        sets = []
        for _ in range(args.sets):
            sets.append([run_once(workload, seed, args.seconds, False)
                         for seed in range(1, args.runs + 1)])
        summarise(workload, sets, bounds)
        if args.layers:
            traced = [run_once(workload, seed, args.seconds, True)
                      for seed in range(1, args.runs + 1)]
            summarise(f"{workload} (traced)", [traced], {})
            untraced = statistics.median(r["ops_per_s"] for r in sets[0])
            with_trace = statistics.median(r["trace.ops_per_s"]
                                           for r in traced)
            print(f"  tracing overhead: ops_per_s {with_trace:.2f} traced "
                  f"vs {untraced:.2f} untraced "
                  f"({(with_trace - untraced) / untraced:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeat one workload of the benchmark over seeds and summarise it.

Run from the repository root:

    python3 perfbench/baseline.py --workload pal_live --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) for
BENCHMARK.json's run_seconds, then prints one markdown row per end-to-end
metric: median, first and third quartile (statistics.quantiles, n=4),
their distance as a share of the median, and the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: seed {seed} failed "
                     f"(exit {proc.returncode})")
        lines = proc.stdout.splitlines()
        metrics = json.loads(lines[-1])["metrics"]
        for name, v in values.items():
            v.append(metrics[name]["value"])
        scale = json.loads(lines[-2])["host_scale"]
        print(f"seed {seed}: host_scale {scale:.3f}, " + ", ".join(
            f"{name} {v[-1]:.5g}" for name, v in values.items()),
            file=sys.stderr)

    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        print(f"| {args.workload} | {m['name']} | {m['unit']} | "
              f"{statistics.median(v):.5g} | {q1:.5g} | {q3:.5g} | "
              f"{stats.quartile_spread(v):.3f} | {m['bound']} |")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark for m4ps; README.md in this directory describes it.

Run from the repository root:

    python3 perfbench/run.py --workload pal_live --seed 1 --trace 0

Builds this directory, and with it the m4ps library from src/, into
.bench_build/perfbench, runs one workload, checks its outputs, and prints
one JSON object as the last line of standard output: with --trace 0 every
end-to-end metric BENCHMARK.json lists, with --trace 1 every per-layer one.
--seconds defaults to BENCHMARK.json's run_seconds.
Exits non-zero when the build fails, the run fails, or an output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
WORKLOADS = ("pal_live", "paper_grid", "serve_fec")
DEFAULT_SEED = 1
MAX_THREADS = 4
# serve_fec open-loop arrival rate in sessions/s: about 30% of the
# closed-loop capacity of a 4-core host (21.6/s), low enough that
# queueing does not swamp the session rates.  BENCHMARK.json states it
# too.
ARRIVAL_PER_S = 6
# serve_fec session latency limit in ms, also stated in BENCHMARK.json.
SLO_MS = 500
RUN_TIMEOUT_S = 170


def codec_threads():
    """N: the usable cores, capped at MAX_THREADS."""
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def build(jobs):
    """Configure (once) and build m4ps_perfbench; exit on failure."""
    steps = [["cmake", "--build", str(BUILD_DIR),
              "--target", "m4ps_perfbench", "-j", str(jobs)]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return BUILD_DIR / "m4ps_perfbench"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    threads = codec_threads()
    exe = build(threads)
    work_dir = BUILD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload,
           "--seed", str(args.seed % 2**63), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--threads", str(threads),
           "--arrival-rate", repr(ARRIVAL_PER_S),
           "--work-dir", str(work_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"perfbench: {args.workload} exited {proc.returncode} "
                 "without a result")
    doc = json.loads(lines[-1])
    for what in doc["mismatches"] + doc["errors"]:
        print("perfbench: failed: " + what, file=sys.stderr)
    out = stats.result(doc, args.trace == 1, bench, SLO_MS)
    print(json.dumps({"config": doc["config"],
                      "host_scale": stats.host_scale(doc)}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the HyRD benchmark harness from source and runs it.

One workload, as the benchmark contract calls it (the last line of
standard output is the JSON result):

    python3 perfbench/run.py --workload small_files --seed 1 --seconds 20 --trace 0

Every workload, printing every end-to-end and per-layer metric with its
unit (exit code non-zero if any correctness check fails):

    python3 perfbench/run.py --seed 1

Run from the root of a checkout. The build goes to .bench_build/ there.
"""
import argparse
import os
import subprocess
import sys

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hyrd_perfbench")
WORKLOADS = ["small_files", "large_files", "outage_campaign"]
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", PERFBENCH, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "hyrd_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run(workload, seed, seconds, trace):
    """Runs one workload; its output is passed through. Returns the exit code."""
    sys.stdout.flush()
    proc = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    if args.workload:
        return run(args.workload, args.seed, args.seconds, args.trace)
    # Every workload with tracing on: the traced invocation also computes
    # (and prints) the end-to-end metrics of its untraced run.
    worst = 0
    for workload in WORKLOADS:
        worst = max(worst, run(workload, args.seed, args.seconds, 1))
    return worst


if __name__ == "__main__":
    sys.exit(main())

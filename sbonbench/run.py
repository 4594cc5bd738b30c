#!/usr/bin/env python3
"""Builds and runs the SBON benchmark.

    python3 sbonbench/run.py --workload serve|maintain|decentralized \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the benchmark (Release) under the directory named by the
CARGO_TARGET_DIR environment variable, or `.bench_build` by default; later
runs only rebuild what changed. Each run first executes the statistics
self-test, then the benchmark, whose last line of standard output is the
result object. The exit code is nonzero when the build, the self-test or a
correctness check fails; a failed build or self-test prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "maintain", "decentralized")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "sbonbench")


def run_quiet(cmd, timeout):
    """Runs `cmd` with its output sent to stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            return False
    return run_quiet(["cmake", "--build", out, "-j", "4", "--target",
                      "sbonbench", "sbonbench_selftest"], BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("build failed", file=sys.stderr)
        return 1
    if run_quiet([os.path.join(out, "sbonbench_selftest")], 60) != 0:
        print("statistics self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "sbonbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("benchmark printed no result", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

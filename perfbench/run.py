#!/usr/bin/env python3
"""Builds the YCSB benchmark from this checkout's sources, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its log to standard error, so the benchmark's JSON result stays the last
line of standard output. Traced runs (--trace 1) also write one JSON line per
traced step to spans/<workload>-seed<seed>.jsonl inside the build directory.
The exit code is the benchmark's: 0 on success, 1 on a failed check or
build, 2 on a usage error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "perfbench_ycsb"
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    log = sys.stderr
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", TARGET, "-j", BUILD_JOBS],
        check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

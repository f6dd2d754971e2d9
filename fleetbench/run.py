#!/usr/bin/env python3
"""Fleet benchmark entry point.

Builds the fleetbench program from the repository's sources, writes the
seed's inputs (base artifact, fleet shard, user class lists) in a separate
process, runs one workload and relays its result object as the last line
of standard output. Run it from the repository root:

    python3 fleetbench/run.py --workload fleet_hot --seed 1 --seconds 30 --trace 0

Everything it builds or writes stays under .bench_build/ in the current
directory. The exit code is nonzero when the build fails or a check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_hot", "personalize")
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175  # a run without a build must end within 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
        return 124


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = call(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            return code
    return call(["cmake", "--build", build_dir, "-j", "4", "--target",
                 "fleetbench"], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    start = time.monotonic()
    bench_dir = os.path.join(os.getcwd(), ".bench_build")
    build_dir = os.path.join(bench_dir, "fleetbench")
    binary = os.path.join(build_dir, "fleetbench")
    built_now = not os.path.exists(binary)
    if build(build_dir) != 0 or not os.path.exists(binary):
        log("build failed")
        return 1
    deadline = start + (900 - 5 if built_now else RUN_DEADLINE_S)

    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}-t{args.trace}"
    inputs = os.path.join(bench_dir, "inputs", f"seed-{args.seed}")
    trace_dir = os.path.join(bench_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    try:
        code = call([binary, "prepare", "--seed", str(args.seed), "--out",
                     inputs], deadline - time.monotonic())
        if code != 0:
            log("prepare failed")
            return 1
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--inputs", inputs]
        if args.trace == "1":
            cmd += ["--trace-out", os.path.join(trace_dir, tag + ".json")]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("workload timed out")
            return 124
        lines = proc.stdout.strip().splitlines()
        if not lines:
            log(f"workload printed no result (exit {proc.returncode})")
            return proc.returncode or 1
        print(json.dumps(json.loads(lines[-1])), flush=True)
        return proc.returncode
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

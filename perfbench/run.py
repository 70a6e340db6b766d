#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet_eval --seed 7 --seconds 10 --trace 0

Configures perfbench/ (which compiles ../src in Release mode) into
.bench_build/perfbench on first use, rebuilds incrementally on every
call, then runs pipeline_bench. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. For fleet_eval, the
energy hash recorded for the seed in golden_fleet_hashes.json (when
present) is passed on and checked.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_eval", "daemon_ingest")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no NetMaster sources under " + os.path.join(root, "src"))
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: " + str(e))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "fleet_eval":
        with open(os.path.join(HERE, "golden_fleet_hashes.json")) as f:
            golden = json.load(f)
        if str(args.seed) in golden:
            command += ["--expect-hash", golden[str(args.seed)]]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pipeline_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

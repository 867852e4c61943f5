#!/usr/bin/env python3
"""Builds hef_bench from this checkout and runs one workload.

    python3 hef_bench/run.py --workload mix_sf03 --seed 1 --seconds 20 --trace 0

The repository is configured with hef_bench/attach.cmake into the build
directory ($CARGO_TARGET_DIR, else .bench_build) and the hef_bench target
is (re)built. The run's hef-bench-v1 report and, with --trace 1, its
chrome://tracing file land in <build>/runs/. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, where
metrics holds every end_to_end metric of BENCHMARK.json (--trace 0) or
every per_layer metric (--trace 1), each with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (first time only) and builds hef_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no HEF source tree at {ROOT}")
    cmake_dir = os.path.join(build_dir, "hef")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ROOT, "-B", cmake_dir,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DHEF_BUILD_TESTS=OFF", "-DHEF_BUILD_BENCHMARKS=OFF",
            "-DHEF_BUILD_EXAMPLES=OFF",
            "-DCMAKE_PROJECT_INCLUDE=" +
            os.path.join(ROOT, "hef_bench", "attach.cmake"),
        ])
    steps.append(["cmake", "--build", cmake_dir, "--target", "hef_bench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "hef_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{args.workload}-{args.seed}-{args.trace}")
    report_path = stem + ".json"
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={seconds}", f"--json={report_path}"]
    if args.trace:
        command.append(f"--trace={stem}.trace.json")
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"hef_bench did not finish within {RUN_TIMEOUT_S} s")
    if not os.path.isfile(report_path):
        fail(f"hef_bench exited with {code} and wrote no report")

    with open(report_path) as f:
        report = json.load(f)
    phase = "layers" if args.trace else "e2e"
    row = next((r for r in report["results"] if r.get("phase") == phase),
               None)
    if row is None:
        fail(f"report has no phase={phase} row")
    missing = [m["name"] for m in wanted if m["name"] not in row]
    if missing:
        fail("report lacks metrics: " + ", ".join(missing))
    result = {
        "correct": bool(row["correct"]),
        "attempted": int(row["attempted"]),
        "failed": int(row["failed"]),
        "metrics": {m["name"]: {"value": row[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

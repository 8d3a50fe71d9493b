#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/CMakeLists.txt compiles the engine sources under src/ into
$CARGO_TARGET_DIR (default .bench_build, relative to the checkout root) on
first use; later runs only re-check the build. The last line of standard
output is the run's JSON result, whose metric names are checked against
BENCHMARK.json. Exits nonzero without a result when the build or the run
fails, and nonzero after the result when a correctness check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4"], stdout=sys.stderr,
                   check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans",
           os.path.join(spans, f"{args.workload}-{args.seed}.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        return 1

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = (set(result) == RESULT_KEYS and
                 set(result["metrics"]) == expected_metrics(args.trace))
    except (ValueError, TypeError, KeyError):
        valid = False
    if not valid:
        sys.stderr.write(run.stdout)
        print(f"run.py: no valid result (exit {run.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

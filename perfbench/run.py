#!/usr/bin/env python3
"""Builds and runs the perfbench binary, then prints one JSON result line.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <read_mostly|write_replicate|geo_sim> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with CMake from perfbench/CMakeLists.txt, which compiles
the Walter libraries from ../src. The build directory is $CARGO_TARGET_DIR
(default .bench_build) / perfbench. The binary's own tables are passed
through; the last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1), each as {"value", "unit"}. A failed correctness check
prints correct=false with no metrics and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
BUILD_JOBS = 3


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    """Configures (once) and builds the binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(BUILD_JOBS)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail(f"build step {cmd[:2]} failed: {exc}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited with {proc.returncode}")
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, spans_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"perfbench exited with {proc.returncode} and printed no result")
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json in {root}: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(os.path.join(root, "perfbench"), build_dir)

    spans_path = ""
    if args.trace:
        spans_dir = os.path.join(root, target, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
    result, code = run_binary(binary, args, spans_path)

    if not result["correct"] or code != 0:
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        sys.exit(1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"perfbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: perfbench unit {got['unit']} != BENCHMARK.json unit {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the perfbench executable (Release) and runs one workload.

Run from the root of a fedflow checkout:

    python3 perfbench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

The first call configures and builds the fedflow libraries and perfbench in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls only
rebuild what changed. The output of perfbench is passed through: every metric
as "name value unit", then one JSON result line. The exit code is its own.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests: the request generator's properties,
exact repetition of the count metrics across two traced runs with one seed,
and agreement of the reported metric names with BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                   os.path.join(ROOT, ".bench_build"))),
    "perfbench")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("fedflow sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                 targets)
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 3)


def run_bench(args):
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    workload = args[args.index("--workload") + 1] if "--workload" in args else "none"
    command = [os.path.join(BUILD_DIR, "perfbench")] + args
    if "--spans" not in args:
        command += ["--spans", os.path.join(spans_dir, workload + ".tsv")]
    return subprocess.run(command).returncode


def traced_metrics(workload, seed):
    out = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--spans",
         os.path.join(BUILD_DIR, "spans", "self-test.tsv")],
        stdout=subprocess.PIPE, universal_newlines=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        fail("traced run of %s failed" % workload, 1)
    return result["metrics"]


def self_test():
    build(["perfbench", "perfbench_test"])
    os.makedirs(os.path.join(BUILD_DIR, "spans"), exist_ok=True)
    failures = []
    if subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode:
        failures.append("perfbench_test")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer_names = {m["name"] for m in spec["per_layer"]}
    for workload in ("point_hot", "bulk_join"):
        first = traced_metrics(workload, 3)
        second = traced_metrics(workload, 3)
        if set(first) != layer_names:
            failures.append("%s: traced metrics differ from BENCHMARK.json: %s"
                            % (workload, sorted(set(first) ^ layer_names)))
        exact = [name for name in first
                 if "_per_call" in name or name.startswith("model.")]
        for name in exact:
            if first[name]["value"] != second.get(name, {}).get("value"):
                failures.append("%s: %s changed between runs: %r -> %r" % (
                    workload, name, first[name]["value"],
                    second.get(name, {}).get("value")))
        print("%s: %d exact-count metrics compared" % (workload, len(exact)))

    out = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench"), "--workload", "point_hot",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, universal_newlines=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    if out.returncode != 0 or set(result["metrics"]) != e2e_names:
        failures.append("end-to-end metrics differ from BENCHMARK.json")

    for failure in failures:
        print("FAILED: " + failure, file=sys.stderr)
    print("self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    build(["perfbench"])
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())

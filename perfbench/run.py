#!/usr/bin/env python3
"""The irbuf benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, which compiles ../src) under
.bench_build/, then generates the full-scale synthetic corpus once into
.bench_build/corpus/; later runs reuse both.

Workloads: serial_refine and cold_open. With --trace 0 the run reports
the end-to-end metrics, with --trace 1 the per-layer metrics and the
layer ledger. BENCHMARK.json is the one list of metric names and units:
the program computes values, and this script labels the ones the run
reports and refuses names the list does not hold. Every run checks each
answer against a DF reference and the pool/server conservation laws; a
failed check makes the run exit 1 after printing its result.

Output: "name value unit" lines, then, as the last line, one JSON object
with exactly the keys correct, attempted, failed and metrics. The full
result, with host and provenance, is written to
.bench_build/results/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "irbuf_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("irbuf sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "irbuf_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def provenance():
    """The commit when the checkout is a git repository; otherwise a
    digest of the sources the benchmark was built from."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return {"commit": commit.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": None, "source_sha256": digest.hexdigest()}


def load_spec():
    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found at the root of the checkout")
    with open(SPEC) as f:
        return json.load(f)


def label(values, spec, trace):
    """The metrics this run reports, as name -> {value, unit}, and the
    errors in the program's values."""
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    errors = [f"program reports unknown metric {name}"
              for name in values if name not in known]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None and not trace:
            errors.append(f"end-to-end metric {m['name']} missing")
        # A layer the workload does not use reports 0.
        value = 0.0 if value is None else value
        if not math.isfinite(value) or (not trace and value <= 0):
            errors.append(f"{m['name']} = {value} is not a positive number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, errors


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    corpus_dir = os.path.join(BUILD_ROOT, "corpus")
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(corpus_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--corpus-dir", corpus_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"irbuf_perfbench exited with code {run.returncode}")
    result = json.loads(lines[-1])
    metrics, errors = label(result["values"], spec, args.trace)
    errors = result["errors"] + errors
    correct = result["correct"] and not errors

    record = {
        "result": dict(result, metrics=metrics, errors=errors,
                       correct=correct),
        "provenance": provenance(),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
        },
    }
    out = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)

    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:16.6f} {m['unit']}")
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)

if __name__ == "__main__":
    main()

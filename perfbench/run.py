#!/usr/bin/env python3
# Copyright (c) saedb authors. Licensed under the MIT license.
"""Repository benchmark for saedb.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Builds the saedb layers and the perfbench program from source into
.bench_build/, runs the reducer self-test, runs one workload (or every
workload with ``all``), and prints the program's report followed, as the
last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics BENCHMARK.json
names; with ``--trace 1`` they are its per-layer metrics. The full result,
with a host descriptor, lands in .bench_build/results/. The exit status is
non-zero when the build or self-test fails, a metric is missing, or the
program accepted a wrong answer or lost an acknowledged update.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ["sae-net-cold", "sae-hot-read", "sae-durable-mixed",
             "tom-durable-mixed"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "core" / "system.h").is_file():
        fail("saedb sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace):
    """Runs the perfbench program once; returns (exit status, result)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"result-{workload}-{seed}-t{trace}.json"
    if out.exists():
        out.unlink()
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(RESULTS)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    if done.returncode not in (0, 1) or not out.is_file():
        fail(f"{workload} exited with status {done.returncode}")
    return done.returncode, json.loads(out.read_text())


def pick_metrics(result, specs, section):
    metrics = {}
    for spec in specs:
        got = result[section].get(spec["name"])
        if got is None or got["value"] is None:
            fail(f"metric {spec['name']} was not measured")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} is in {got['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    build()
    if subprocess.run([str(BUILD / "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("reducer self-test failed")

    section, specs = (("per_layer", spec["per_layer"]) if args.trace
                      else ("end_to_end", spec["end_to_end"]))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        metrics = pick_metrics(result, specs, section)
        correct = code == 0 and result["correct"]
        status |= 0 if correct else 1
        summary["correct"] &= correct
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if len(workloads) == 1:
            summary["metrics"] = metrics
        else:
            for name, metric in metrics.items():
                summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())

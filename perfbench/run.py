#!/usr/bin/env python3
"""Repository benchmark: builds pardpp from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json and described in
perfbench/README.md. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`) under the checkout. The last stdout line is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

A correctness failure, a failed build or a crashed run exits nonzero and
prints no result line.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("t10_rbf_single", "distill_1m_stream", "serve_daemon_mix",
             "t41_filter_single")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the harness and the daemon; serialized by a lock
    so concurrent runs in one checkout build once."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                        "perfbench", "sample_cli"],
                       check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None
    when the file is absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except FileNotFoundError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--daemon", os.path.join(build_dir, "sample_cli"),
               "--scratch", build_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no report from the harness (exit code {proc.returncode})")
        return 1
    if proc.returncode != 0 or not report["correct"]:
        log("correctness check failed:")
        for error in report.get("errors", []):
            log(f"  {error}")
        return 1

    expected = expected_metrics(args.trace == "1")
    if expected is not None and set(report["metrics"]) != expected:
        log("metrics do not match BENCHMARK.json: missing "
            f"{sorted(expected - set(report['metrics']))}, extra "
            f"{sorted(set(report['metrics']) - expected)}")
        return 1

    provenance = report["provenance"]
    if provenance.get("generator_behind") == "yes":
        log("open-loop generator fell behind its schedule "
            f"(lag p99 {provenance['generator_lag_ms_p99']:.2f} ms)")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, metric in sorted(report["metrics"].items()):
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

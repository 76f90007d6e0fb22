#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs its workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as a Release build of the perfbench CMake package, which compiles the alid
library from the checkout's own sources. A workload's human-readable report
goes to standard output, followed by one JSON object with the keys correct,
attempted, failed and metrics; for a single workload that object is the last
line. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics: a layer (the name up
to its first dot) the workload does not run reports 0, and a metric the
workload should have measured but did not counts as a failed check.
--workload all runs every workload in turn. Exits non-zero without a result
when the benchmark cannot be built or run.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("palid_static", "stream_heavy_tail", "serve_mixed",
             "shard_embedding")
# A run must finish well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark program; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"no {needed} at the checkout root to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for command in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "alid_perfbench", "-j",
         jobs],
    ):
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(command)} failed")
    return os.path.join(build_dir, "alid_perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def run_workload(program, workload, args, wanted, trace_dir, sha):
    """Runs one workload; prints its report and returns the result object,
    or None when the program failed or printed no result."""
    command = [program, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-dir", trace_dir, "--git-sha", sha]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    results = [line for line in lines if line.startswith("RESULT ")]
    if done.returncode != 0 or not results:
        sys.stdout.write(done.stdout)
        log(f"{workload} exited {done.returncode} without a result")
        return None
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    result = json.loads(results[-1][len("RESULT "):])

    measured = result["metrics"]
    layers = {name.split(".")[0] for name in measured}
    metrics = {}
    missing = []
    for metric in wanted:
        name = metric["name"]
        if name in measured and math.isfinite(measured[name]["value"]):
            value = measured[name]["value"]
        elif args.trace and name.split(".")[0] not in layers:
            value = 0.0  # a layer this workload does not run
        else:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
    print(f"provenance workload={workload} seed={result['seed']} "
          f"nproc={result['nproc']} isa={result['isa']} "
          f"build={result['build_type']} git={result['git_sha']}")
    # A metric that should have been measured but was not is a failed check.
    failed = int(result["failed"]) + len(missing)
    return {"correct": failed == 0,
            "attempted": max(1, int(result["attempted"]) + len(missing)),
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        program = build(build_dir)
    except RuntimeError as error:
        log(str(error))
        return 2
    log(f"built in {time.monotonic() - started:.1f}s")

    trace_dir = os.path.join(os.path.dirname(build_dir), "perfbench-trace")
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(program, workload, args, wanted, trace_dir, sha)
        if result is None:
            return 3
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

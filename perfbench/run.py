#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

The driver is configured and built (Release) under the directory named by
CARGO_TARGET_DIR, default .bench_build, on first use; later runs rebuild
incrementally. Every figure the driver reports is printed as
"<name> = <value> <unit> [<kind>]"; the last line of standard output is the
result object: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The exit code is 0 only when every check
passed (failed_pct == 0). Traced runs also write the spans of their first
traced episode to .bench_out/<workload>.spans.csv.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from a full checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        # Build logs go to stderr: stdout ends with the result object.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    driver = build()
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--spans",
                    os.path.join(out_dir, f"{args.workload}.spans.csv")]
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    elapsed = time.monotonic() - start

    metrics = {}
    result = None
    for line in run.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 5:
            metrics[fields[1]] = (float(fields[2]), fields[3], fields[4])
        elif fields[:1] == ["result"] and len(fields) == 4:
            result = (fields[1] == "1", int(fields[2]), int(fields[3]))
    if result is None:
        fail(f"driver exited with code {run.returncode} and no result")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={elapsed:.1f}s")
    for name, (value, unit, kind) in metrics.items():
        print(f"{name} = {value:.6g} {unit} [{kind}]")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = {}
    for metric in wanted:
        name = metric["name"]
        if name not in metrics:
            fail(f"driver reported no {name}")
        value, unit, _ = metrics[name]
        if unit != metric["unit"]:
            fail(f"{name}: driver unit {unit!r} != {metric['unit']!r}")
        selected[name] = {"value": value, "unit": unit}

    correct, attempted, failed = result
    correct = correct and failed == 0 and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

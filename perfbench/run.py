#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload metro_browse --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
`perfbench` (and the libraries under src/ it links) into .bench_build/;
later runs only re-check the build. The benchmark's JSON result is the last
line of stdout; build output goes to stderr. The exit code is nonzero when
the build fails, the run fails, or a correctness check does not hold.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("metro_browse", "metro_video", "metro_opt", "live_small")
# The run itself measures for --seconds; this leaves room for set-up,
# the last metro repetition and the live servers' drain.
RUN_GRACE_S = 60


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def publish(raw, trace):
    """The result line: the binary's raw values in BENCHMARK.json's order,
    with its units. Per-layer metrics of a layer the workload does not run
    read 0; an end-to-end metric must always be measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    values = raw["metrics"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise ValueError(f"undeclared metrics: {sorted(unknown)}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    return {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in declared},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1]) if lines else None
        result = publish(raw, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        print(proc.stdout, end="", file=sys.stderr)
        print(f"perfbench: run failed (exit code {proc.returncode}): {e}",
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    return 0 if proc.returncode == 0 and result["correct"] is True else 1


if __name__ == "__main__":
    sys.exit(main())

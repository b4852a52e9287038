#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds the
benchmark into .bench_build/ (the ndft library from src/ plus
ndft_perfbench from this directory); later calls rebuild only what
changed. The stdout of ndft_perfbench passes through, so its last line is
the result JSON. A traced run also writes its spans, as Chrome trace-event
JSON, to .bench_build/spans-<workload>-<seed>.json.

--self-check runs every workload once, untraced and traced, at the
shortest length and fails when a metric named in BENCHMARK.json is
missing or has the wrong unit, when an end-to-end metric is not positive,
or when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ndft_perfbench")
# A run must end within 180 s; ndft_perfbench itself keeps well inside it.
RUN_TIMEOUT_S = 170

WORKLOADS = ("dft-jobs", "simulate", "service-mix")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("CMakeLists.txt",
                     os.path.join("src", "api", "engine.hpp")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no %s at %s: run from a full checkout" % (required, ROOT))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ndft_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def run(workload, seed, seconds, trace):
    """Runs ndft_perfbench once; returns (exit code, stdout text)."""
    argv = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        argv += ["--trace-out", os.path.join(
            ROOT, ".bench_build", "spans-%s-%s.json" % (workload, seed))]
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = run(workload, 1, 1, trace)
            label = "%s --trace %d" % (workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit code %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            if result["attempted"] < 1:
                problems.append("%s: no operation attempted" % label)
            if not result["correct"]:
                problems.append("%s: a correctness check failed" % label)
            if result["failed"]:
                print("perfbench: %s: %d of %d operations failed"
                      % (label, result["failed"], result["attempted"]),
                      file=sys.stderr)
            expected = per_layer if trace else end_to_end
            for name in expected:
                metric = result["metrics"].get(name)
                if metric is None:
                    problems.append("%s: metric %s missing" % (label, name))
                elif metric.get("unit") != units.get(name):
                    problems.append("%s: %s has unit %r, BENCHMARK.json says "
                                    "%r" % (label, name, metric.get("unit"),
                                            units.get(name)))
                elif not trace and not metric.get("value", 0) > 0:
                    problems.append("%s: %s is not positive" % (label, name))
    for problem in problems:
        print("perfbench self-check: " + problem, file=sys.stderr)
    print("perfbench self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    if args.self_check:
        return self_check()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

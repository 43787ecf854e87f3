#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build.  The benchmark binary measures the workload for S
seconds and checks its outputs; this script then lays its metrics out as
BENCHMARK.json declares them and prints the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list; with --trace 1 they are
the per_layer list, and a layer the workload does not run reads 0.  The
traced run also writes a Perfetto trace to .bench_build/perfbench-traces/.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # One build at a time per checkout; the lock is released on exit.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result line.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, env=env).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    os.makedirs(TRACES, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", TRACES]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark binary exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark binary printed no result line")
    for line in lines[:-1]:
        print(line)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    not_run = []
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            not_run.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, declared in %s"
                 % (m["name"], got["unit"], m["unit"]))
        value = got["value"]
        if value is None or not math.isfinite(value):
            fail("metric %s is not a finite number" % m["name"])
        if not args.trace and value <= 0:
            fail("end-to-end metric %s reads %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not_run:
        print("layers this workload does not run (reported as 0): "
              + ", ".join(not_run))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the nv benchmark.

One run of one workload (the last stdout line is the run's JSON result):

    python3 nvbench/run.py --workload ft-wan --seed 1 --seconds 10 --trace 0

Other modes:

    python3 nvbench/run.py --spread [--seconds 10]
        Runs every workload 10 times with seeds 1, 2, ..., 10, rotating the
        workload order from round to round, and prints each end-to-end
        metric's median, quartiles and spread (IQR / median).

    python3 nvbench/run.py --self-test
        Builds and runs the oracle tests (hand-made graphs with known
        answers).

Run it from the repository root. The libraries, the `nv` daemon binary and
the load generator are built from source in .bench_build/nvbench with the
repository's default build type, so a stale build/ never decides what is
measured. Exit code 0 means the run completed and printed its result;
anything else means it did not (build failure, missing sources, bad usage).
"""

import argparse
import fcntl
import json
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "nvbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
WORKLOADS = ["ft-wan", "sim-allprefix", "serve-session"]
RUN_TIMEOUT_S = 170
SPREAD_RUNS = 10


def fail(msg, code=2):
    print("nvbench: " + msg, file=sys.stderr)
    sys.exit(code)


def default_build_type():
    """The build type the repository's CMakeLists.txt defaults to."""
    with open(os.path.join(ROOT, "CMakeLists.txt")) as f:
        m = re.search(r"set\(CMAKE_BUILD_TYPE\s+(\w+)\)", f.read())
    return m.group(1) if m else "RelWithDebInfo"


def build(targets):
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full nv checkout" % need)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + default_build_type()])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target"] + targets)
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))


def run_once(workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "nvbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--nv", os.path.join(BUILD_DIR, "nv_tools", "nv"),
           "--work-dir", WORK_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 3)
    return proc.returncode, (out or b"").decode()


def spread(seconds):
    results = {w: [] for w in WORKLOADS}
    for r in range(SPREAD_RUNS):
        seed = 1 + r
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for w in order:
            code, out = run_once(w, seed, seconds, 0, True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                fail("%s seed %d exited with %d" % (w, seed, code), 3)
            res = json.loads(lines[-1])
            results[w].append(res)
            print("%-14s seed %-4d %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
    print()
    print("%-14s %-26s %12s %12s %12s %8s" %
          ("workload", "metric", "median", "q1", "q3", "spread"))
    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            sp = (q3 - q1) / med if med else 0.0
            print("%-14s %-26s %12.4f %12.4f %12.4f %7.1f%%" %
                  (w, name, med, q1, q3, 100 * sp))
        print("%-14s failed shares %s, all correct: %s" %
              (w, shares, all(r["correct"] for r in runs)))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        build(["nvbench_oracle_tests"])
        sys.exit(subprocess.call(
            [os.path.join(BUILD_DIR, "nvbench_oracle_tests")]))
    if not args.spread and not args.workload:
        fail("--workload, --spread or --self-test is required")
    build(["nvbench", "nv"])
    if args.spread:
        spread(args.seconds)
        return
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       False)
    sys.exit(code)


if __name__ == "__main__":
    main()

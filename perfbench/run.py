#!/usr/bin/env python3
"""Canonical DRMP simulator benchmark.

Builds the simulator and the benchmark binary from the sources in this
checkout (Release, CMake), then runs one workload and passes its output
through: progress on standard error, and as the last line of standard output
one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload cells_roaming --seed 2008 --seconds 10 --trace 0

--trace 1 makes the traced run (per-layer metrics) and writes its spans as
Chrome-trace JSON next to the build. --test builds and runs the benchmark's
own tests instead. The build goes to $CARGO_TARGET_DIR/perfbench, or to
.bench_build/perfbench when that variable is unset.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_testbench", "cells_roaming")
RUN_TIMEOUT_S = 170  # A 60 s run takes about 61 s.


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir, target, tests):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no DRMP source tree next to perfbench/")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    flag = "-DPERFBENCH_TESTS=" + ("ON" if tests else "OFF")
    if not os.path.exists(cache) or tests:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", flag]
        if shutil.which("ninja") and not os.path.exists(cache):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2008)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()
    if not args.test and args.workload is None:
        ap.error("--workload is required")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_dir), "perfbench")

    if args.test:
        build(build_dir, "perfbench_test", tests=True)
        test = subprocess.run([os.path.join(build_dir, "perfbench_test")])
        sys.exit(test.returncode)

    build(build_dir, "drmp_perfbench", tests=False)
    cmd = [os.path.join(build_dir, "drmp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        bench = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()

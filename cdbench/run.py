#!/usr/bin/env python3
"""Builds cdbench from this checkout and runs one workload.

    python3 cdbench/run.py --workload batch-book --seed 7 --seconds 15 \
        --trace 0

Run from the root of the checkout. The engine, copydetectd and the
cdbench binary are built (Release) into $CARGO_TARGET_DIR/cdbench, or
.bench_build/cdbench when it is unset; build output goes to stderr.
cdbench's last stdout line is the result object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1 (its Chrome trace is
left in the build directory). The exit code is cdbench's, or the
build's when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            # A half-written cache must not skip the next configure.
            shutil.rmtree(build_dir, ignore_errors=True)
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", build_dir, "--target", "cdbench",
         "--parallel", jobs],
        stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "cdbench")
    status = build(build_dir)
    if status != 0:
        return status

    command = [os.path.join(build_dir, "cdbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}"]
    if args.trace:
        command.append("--trace=" + os.path.join(
            build_dir, f"trace-{args.workload}.json"))
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the I-Cilk reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <proxy-hit|proxy-miss|jobs-mixed> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the benchmark (CMake, into .bench_build/perfbench) from the library
sources under src/, then runs one workload. The last line of standard output
is the JSON result; build output goes to standard error. Exits nonzero when
the build fails, a correctness check fails, or the library sources are
missing.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build(target):
    if not (ROOT / "src" / "apps" / "RealProxy.cpp").is_file():
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / target


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode
    binary = build("perfbench_e2e")
    try:
        done = subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which adds the repository's
own build and links its setdisc library) into .bench_build/perfbench and
generates the workload's collection file into .bench_build/perfbench-data;
later runs reuse both.
Build output goes to stderr; stdout carries the benchmark's own output,
whose last line is the JSON result. The exit code is the benchmark's, or
nonzero with nothing on stdout when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
STATE_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(STATE_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "setdisc_perfbench")


def build():
    """Configures (once) and builds the benchmark; True on success."""
    steps = []
    # Configure until a build system exists: a configure that failed part
    # way leaves a cache behind but no Makefile.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "setdisc_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY] + argv + [
        "--data-dir", os.path.join(STATE_DIR, "perfbench-data"),
        "--out-dir", os.path.join(STATE_DIR, "perfbench-out"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark (perfbench/CMakeLists.txt) compiles the Colibri libraries
from src/ and links the colibench binary into a build tree under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout. Build output
goes to stderr; the binary's output, ending in one JSON result line, goes
to stdout. Exits non-zero without a result when the sources are missing or
the build fails.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Colibri sources (src/CMakeLists.txt) next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "colibench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "colibench")


def main():
    binary = build()
    r = subprocess.run([binary] + sys.argv[1:], timeout=170)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()

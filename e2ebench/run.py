#!/usr/bin/env python3
"""Builds and runs the retrust end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload warm_read --seed 1 --seconds 20 --trace 0

The first call configures and builds the library sources plus the benchmark
program into .bench_build/e2ebench (Release); later calls rebuild only what
changed.
Build output goes to stderr, so the program's last stdout line stays the
JSON result. Generated inputs live in a per-run directory under
.bench_build that is removed when the run ends. The exit code is the
program's, or 2 when the build fails (no result is printed then).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        cmd = [os.path.join(BUILD_DIR, "e2e"), "--work-dir", work_dir]
        return subprocess.run(cmd + sys.argv[1:]).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

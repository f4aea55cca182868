#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload section6_mem --seed 1 \
        --seconds 15 --trace 0

Everything the build and the runs leave behind goes to .bench_build/ in
the repository root: the CMake tree, the cached XMark corpora and the
packed corpus files. Build output goes to stderr, and only when the
build fails; the benchmark's last stdout line is its JSON result. Extra
arguments (for example --tiny) are passed through to the flexbench
binary.

The corpus is generated (or found in the cache) by a separate flexbench
process with --prepare, so the measured process starts from the same
state whether or not the seed is new.
"""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
BINARY = os.path.join(BUILD, "flexbench")

# The benchmark itself must end within 180 s; the build has its own,
# longer allowance on a fresh checkout.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(WORK, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "flexbench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise subprocess.CalledProcessError(proc.returncode, cmd)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [BINARY, "--work-dir", WORK] + sys.argv[1:]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for step in (cmd + ["--prepare"], cmd):
        try:
            proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  timeout=deadline - time.monotonic(),
                                  text=True)
        except subprocess.TimeoutExpired:
            print("run.py: benchmark timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"run.py: flexbench exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

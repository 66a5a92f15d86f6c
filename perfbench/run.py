#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <bulk_shared|small_mix|das2_ckpt> \\
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/CMakeLists.txt (the remio
libraries from src/ plus the benchmark driver) into .bench_build/perfbench
of the checkout; later runs rebuild incrementally. Build output goes to
stderr. The driver's stdout passes through unchanged; its last line is the
JSON result. Exits non-zero, printing no result, if the build or the run
fails.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")

    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=root)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

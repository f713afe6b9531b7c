#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload impute-sparse --seed 1 --seconds 24 --trace 0

Configures perfbench/CMakeLists.txt (which includes the repository's own
root CMakeLists.txt) as a Release build under .bench_build/perfbench,
builds the harness and the smfl CLI, then runs the harness. The harness
prints the result; its last stdout line is one JSON object. Build output
goes to stderr. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Every run must end within 180 s; the harness measures for --seconds.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns False on any failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "perfbench_harness",
                   "smfl", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The workload fixes threads, SIMD and telemetry; no SMFL_* setting of
    # the caller's environment may change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMFL_")}
    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir,
           "--state-dir", os.path.join(BUILD, "state"),
           "--smfl", os.path.join(BUILD, "smfl", "tools", "smfl")]
    try:
        result = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

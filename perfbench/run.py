#!/usr/bin/env python3
"""Build the library and the benchmark program from source, then run one
workload of the repository benchmark.

    python3 perfbench/run.py --workload churn|lifecycle|stream \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build lives in .bench_build/ (CMake,
RelWithDebInfo); journals and span dumps go to .bench_build/run-<workload>/.
The program's report goes to stdout and its last line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is the
program's: non-zero when a build step fails, a delivery or state check
fails, or the run exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "perfbench")
RUN_LIMIT_S = 170  # a run must end well inside 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the report.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["churn", "lifecycle", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1

    run_dir = os.path.join(ROOT, ".bench_build", f"run-{args.workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_LIMIT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_LIMIT_S} s and was killed")
        return 1
    finally:
        # Journals are only needed while the run lasts; spans are kept.
        shutil.rmtree(os.path.join(run_dir, "lifecycle"), ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        missing = {"correct", "attempted", "failed", "metrics"} - set(result)
    except (ValueError, IndexError):
        result, missing = None, {"result line"}
    if done.returncode != 0 or missing:
        sys.stdout.write(done.stdout)
        log(f"perfbench exited {done.returncode}; missing {sorted(missing)}")
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

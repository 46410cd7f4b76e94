#!/usr/bin/env python3
"""Build the host-performance benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 hostbench/run.py --workload paper-4cpu --seed 7 --seconds 15 --trace 0

The first call configures and builds hostbench/CMakeLists.txt into
.bench_build/hostbench (about a minute on two cores); later calls only
check that the build is current. The benchmark binary prints its metrics,
the correctness verdict and, as the last line of stdout, one JSON
object, which this script passes through. The exit code is the
binary's; a failed build or a missing result exits non-zero without
printing a result. README.md in this directory describes the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
REFS = os.path.join(HERE, "reference_digests.txt")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def clean_env():
    """The library reads MPOS_* variables (slow reference loop, checker,
    tracing, sim threads); none of them may leak into a measurement.
    Temporary files (the compiler's) stay inside the build tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPOS_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configure on first use, then bring the build up to date.
    Returns the binary's path, or None if the build failed."""
    env = clean_env()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", BUILD, "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(BUILD, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("hostbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", REFS]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it on timeout.
        print("hostbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("hostbench: benchmark printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

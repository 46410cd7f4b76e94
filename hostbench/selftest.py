#!/usr/bin/env python3
"""Self-test of the host benchmark; about a minute after the build.

    python3 hostbench/selftest.py

Runs a shortened pass (0.8 M warm-up + 2 M measured cycles per job) of
every workload in BENCHMARK.json, untraced and traced, and checks:

  * the last stdout line is one JSON object with exactly the keys
    correct/attempted/failed/metrics, every job correct;
  * the metrics are exactly BENCHMARK.json's end_to_end list (untraced)
    or per_layer list (traced), each with its unit and a finite value;
  * every job's digest repeats across the two processes;
  * a directory holding only BENCHMARK.json and the benchmark's own
    files makes run.py fail without printing a result.

Exits 0 only if every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run

SEED = 11


def check_result(stdout, expected, label, problems):
    """Parse the last line and compare its metrics against expected
    {name: unit}. Returns the digest lines printed before it."""
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        problems.append("%s: last line is not JSON" % label)
        return []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: keys %s" % (label, sorted(result)))
        return []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("%s: not correct (%d of %d failed)"
                        % (label, result["failed"], result["attempted"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted %r" % (label, result["attempted"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("%s: metrics differ: missing %s, extra %s" % (
            label, sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append("%s: %s unit %r, expected %r"
                            % (label, name, m.get("unit"), expected[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: %s value %r" % (label, name, v))
    return sorted(l for l in lines if l.startswith("digest "))


def check_bare_directory(problems):
    """run.py must fail, printing no result, without the library."""
    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "hostbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "paper-4cpu",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r"
                        % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        print("FAIL: build")
        return 1

    problems = []
    for w in spec["workloads"]:
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (w["name"], trace)
            proc = subprocess.run(
                [binary, "--workload", w["name"], "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--short"],
                stdout=subprocess.PIPE, text=True, env=run.clean_env(),
                timeout=run.RUN_TIMEOUT_S)
            if proc.returncode:
                problems.append("%s: exit %d" % (label, proc.returncode))
            expected = {m["name"]: m["unit"] for m in spec[key]}
            digests.append(check_result(proc.stdout, expected, label,
                                        problems))
            print("ran %s" % label, flush=True)
        if not digests[0] or digests[0] != digests[1]:
            problems.append("%s: digests differ across processes: %s / %s"
                            % (w["name"], digests[0], digests[1]))
    check_bare_directory(problems)

    for p in problems:
        print("FAIL: " + p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

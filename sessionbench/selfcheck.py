#!/usr/bin/env python3
"""Self-check of the secure-session benchmark.

    python3 sessionbench/selfcheck.py

Run from the repository root. Proves three things with short runs (512-bit
keys, 2 rounds, one session; the reference runs at the same key size):

  1. every workload emits exactly the end-to-end metrics (--trace 0) and the
     per-layer metrics (--trace 1) that BENCHMARK.json names, with the
     units it names, and a correct result;
  2. the correctness gate fails a corrupted transcript: the run reports
     correct=false, counts the session as failed and exits non-zero;
  3. in a directory holding only BENCHMARK.json and the benchmark's own
     files, the command exits non-zero without printing a result.
Exits 0 only if every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT = ["--key-bits", "512", "--rounds", "2", "--min-sessions", "1", "--seconds", "0"]

failures = []


def check(ok, what):
    print(("PASS  " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "sessionbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def expected_units(bench, key):
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc, result = run(["--workload", workload, "--seed", "1", "--trace", trace] + SHORT)
            label = "%s --trace %s" % (workload, trace)
            if result is None or proc.returncode != 0:
                check(False, label + ": exit %d, stderr tail: %s"
                      % (proc.returncode, proc.stderr[-400:]))
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + ": result has exactly correct/attempted/failed/metrics")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, label + ": correct, nothing failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = expected_units(bench, key)
            check(got == want, label + ": emits every %s metric with its unit" % key
                  + ("" if got == want else " (missing %s, extra %s, units %s)" % (
                      sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                      sorted(n for n in want if n in got and got[n] != want[n]))))
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  label + ": every value is a number")

    proc, result = run(["--workload", workloads[0], "--seed", "1", "--trace", "0",
                        "--corrupt-transcript"] + SHORT)
    check(proc.returncode != 0, "corrupted transcript: non-zero exit")
    check(result is not None and result["correct"] is False and result["failed"] >= 1,
          "corrupted transcript: correct=false and the session counted as failed")

    bare = os.path.join(ROOT, ".bench_build", "selfcheck_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(["--workload", workloads[0], "--seed", "1", "--trace", "0",
                        "--seconds", "1"], cwd=bare)
    check(proc.returncode != 0 and result is None,
          "without the repository sources: non-zero exit, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print("selfcheck: %s" % ("ok" if not failures else "%d check(s) failed" % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the secure-session benchmark.

    python3 sessionbench/run.py --workload flat_small --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
dubhe library and the benchmark binary from source into .bench_build/
(Release); later calls only rebuild what changed. Build output goes to
stderr; stdout carries the binary's record line and, last, its result line.
Extra flags (--rounds, --key-bits, --min-sessions, --corrupt-transcript)
are passed through to the binary; selfcheck.py uses them.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sessionbench")
BINARY = os.path.join(BUILD, "session_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("sessionbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the dubhe sources (CMakeLists.txt, src/) are not next to " + HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S,
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    a record measured even where there is no git checkout."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "cmake", "sessionbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if path.endswith((".cpp", ".hpp", ".txt", ".cmake")):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    build()
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ] + extra
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("session_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

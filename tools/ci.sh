#!/usr/bin/env sh
# Tier-1 verification: configure + build + ctest in Release, then repeat
# under ASan/UBSan to catch carry-propagation UB and lifetime bugs in the
# bigint kernels and the shared core::ParallelRuntime pool. The release
# leg additionally runs the ISA guard (tools/isa_guard.sh: no VEX/EVEX
# code in libdubhe.a outside the target-attributed kernels), the
# multi-process net smoke (tools/net_smoke.sh: dubhe_node server + 3
# client processes over localhost, plus a 1-root + 2-shard + 4-client
# aggregation-tree leg, every transcript diffed against the in-process
# selftest) and the whole suite again under DUBHE_CPU=portable (slice-by-8
# CRC, scalar GEMM, poll(2) backend — the no-capability tier). Data races
# are a separate tool's job: a final ThreadSanitizer pass builds the
# thread-invariance and transport suites (ctest label `tsan`, build target
# `tsan_suites`; CMakeLists.txt lists them) under the `tsan` preset and
# runs them, so
# a racy edit to the pool, the compute kernels, the TCP event loop, the
# session engine (flat sessions run the shard slice too), the
# quarantine/deadline machinery, or the sharded telemetry counters fails
# loudly.
# Usage: tools/ci.sh [--quick] [extra cmake args...]
#   --quick: run only the fast suites (ctest label `tier1`) in each preset.
set -eu

cd "$(dirname "$0")/.."

# Hang safety: every ctest invocation gets a global per-test timeout so a
# deadlocked TCP event loop or a stuck multi-round session fails the run in
# minutes instead of stalling a CI job until the runner limit.
CTEST_TIMEOUT="${DUBHE_CTEST_TIMEOUT:-300}"
CTEST_ARGS="--no-tests=error --timeout $CTEST_TIMEOUT"
QUICK=0
if [ "${1:-}" = "--quick" ]; then
  CTEST_ARGS="-L tier1 --no-tests=error --timeout $CTEST_TIMEOUT"
  QUICK=1
  shift
fi

run_preset() {
  preset="$1"
  shift
  echo "== configure ($preset) =="
  cmake --preset "$preset" "$@"
  echo "== build ($preset) =="
  cmake --build --preset "$preset" -j "$(nproc 2>/dev/null || echo 4)"
  echo "== ctest ($preset) =="
  # shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
  ctest --preset "$preset" $CTEST_ARGS -j "$(nproc 2>/dev/null || echo 4)"
}

run_preset release "$@"

echo "== ISA guard (release build) =="
tools/isa_guard.sh build

# Two full 3-round secure sessions (multi-process + selftest) — not a fast
# suite. The script enforces its own wall-clock timeout (see net_smoke.sh).
if [ "$QUICK" -eq 0 ]; then
  echo "== multi-process net smoke (release build) =="
  tools/net_smoke.sh build
fi

# Portable-tier leg: DUBHE_CPU=portable masks every runtime capability, so
# the release binaries must pass every suite on slice-by-8 CRC, scalar
# GEMM and the poll(2) event-loop backend — the exact configuration a
# machine without PCLMUL/AVX2/epoll would run.
echo "== portable capability tier (DUBHE_CPU=portable, release build) =="
# shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
DUBHE_CPU=portable ctest --preset release $CTEST_ARGS -j "$(nproc 2>/dev/null || echo 4)"

run_preset asan "$@"

echo "== thread-invariance under TSan =="
cmake --preset tsan "$@"
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)" --target tsan_suites
ctest --preset tsan -L tsan --no-tests=error --timeout "$CTEST_TIMEOUT"

echo "CI OK"

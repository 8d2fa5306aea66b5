#!/usr/bin/env sh
# ISA guard: libdubhe.a is compiled for the baseline ISA, and only the
# target-attributed kernels that core/cpu selects at run time may contain
# VEX/EVEX code. Disassembles the library and fails, listing the
# offenders, when any other function has a v-prefixed mnemonic or a
# %ymm/%zmm operand — code a CPU without AVX would die on with SIGILL.
# The PCLMUL CRC (net/wire.cpp) emits legacy-SSE pclmulqdq and needs no
# allowlist entry.
# Usage: tools/isa_guard.sh [build-dir]   (default: build)
set -eu

lib="${1:-build}/libdubhe.a"
if [ ! -f "$lib" ]; then
  echo "isa_guard: $lib not found" >&2
  exit 2
fi

# One regex alternative per __attribute__((target("avx2..."))) function.
allow='kernel_avx2'

listing="$(objdump -d -C --no-show-raw-insn "$lib")"
printf '%s\n' "$listing" | awk -v allow="$allow" '
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", fn)
    next
  }
  /^ +[0-9a-f]+:\t/ {
    ++insns
    split($0, f, "\t")
    if (f[2] ~ /^v/ || f[2] ~ /%[yz]mm/) {
      if (fn ~ allow) allowed[fn]++
      else bad[fn]++
    }
  }
  END {
    if (insns == 0) { print "isa_guard: no instructions disassembled"; exit 2 }
    n = 0
    for (fn in bad) { printf "  %6d  %s\n", bad[fn], fn; ++n }
    if (n > 0) {
      printf "isa_guard: FAIL — %d function(s) outside the allowlist (%s) contain VEX/EVEX code\n", n, allow
      exit 1
    }
    for (fn in allowed) printf "isa_guard: %d vector instructions in %s\n", allowed[fn], fn
    print "isa_guard: OK"
  }'

#pragma once

// Backend selection for the compute kernels: one binary, chosen per call.
//
// The GEMM carries two microkernels over the same packed panels: a
// portable scalar kernel and an AVX2+FMA kernel compiled as a per-function
// target (see DUBHE_CPU_TARGETS in core/cpu.hpp), so the rest of the
// library stays baseline-ISA. Every gemm call asks core::cpu which one to
// run; masking AVX2 or FMA through DUBHE_CPU or core::cpu::set_enabled
// switches the next call to scalar. There is no other switch.

namespace dubhe::tensor {

/// True when the AVX2+FMA kernel is built for this target AND the host
/// offers (and core::cpu currently enables) AVX2+FMA.
bool simd_available();

/// "avx2" or "scalar" — the backend the next kernel call will use.
const char* simd_backend_name();

}  // namespace dubhe::tensor

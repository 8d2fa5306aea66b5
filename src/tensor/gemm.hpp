#pragma once

#include <cstddef>

namespace dubhe::tensor {

/// Low-level packed-microkernel GEMM over raw row-major buffers:
///
///   C[m, n] = op(A) @ op(B)   (+ bias row broadcast)   (then ReLU)
///
/// op(A) is [m, k]: the stored matrix has leading dimension `lda` and is
/// read transposed when `ta` (A(i, kk) = a[kk * lda + i]); same for B. C is
/// [m, n] with leading dimension n and is fully overwritten. `bias`
/// (nullable) has length n and is added to every row. With `relu` the
/// post-bias value is clamped at zero; `relu_mask` (nullable, [m, n])
/// receives 1.0f where the pre-clamp value was > 0 and 0.0f elsewhere —
/// exactly the backward-pass mask relu_inplace produces.
///
/// Operands are packed into panels and the 8-row register-blocked
/// microkernel (AVX2+FMA when simd_available() at call time, portable
/// scalar otherwise) runs over row panels distributed via
/// core::parallel_for. Partitions are contiguous and every output element
/// is written by exactly one shard from one globally packed B, so results
/// are bit-identical for any thread count.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool ta, const float* b, std::size_t ldb, bool tb,
          float* c, const float* bias = nullptr, bool relu = false,
          float* relu_mask = nullptr);

/// Caps the shard count the compute kernels (gemm, im2col/col2im) hand to
/// core::parallel_for: 0 (the default) means "all runtime workers", 1 forces
/// inline serial execution. Process-global and atomic; returns the previous
/// value. Results do not depend on this setting, only wall-clock does.
std::size_t set_compute_threads(std::size_t threads);
[[nodiscard]] std::size_t compute_threads();

/// Minimum multiply-add count (m * n * k, or the analogous volume for other
/// kernels) below which the compute kernels stay serial: one pool round-trip
/// costs more than the work itself for the FL models' smallest layers.
inline constexpr std::size_t kParallelFlopCutoff = std::size_t{1} << 17;

}  // namespace dubhe::tensor

#pragma once

#include <cstdint>
#include <vector>

#include "bigint/biguint.hpp"

namespace dubhe::bigint {

/// Montgomery multiplication context for a fixed odd modulus.
///
/// Implements the CIOS (coarsely integrated operand scanning) method with
/// 64-bit limbs. A context precomputes `R^2 mod N` (for R = 2^(64 s)) and
/// `-N^{-1} mod 2^64` once, after which modular multiplications cost one
/// pass over the operand limbs with no long division. `pow` uses a
/// fixed 4-bit window over preallocated limb buffers — the hot loop
/// performs no heap allocation — which is the sweet spot for the
/// 2048/4096-bit exponents Paillier needs.
class Montgomery {
 public:
  /// Throws std::invalid_argument if `modulus` is even or zero.
  explicit Montgomery(const BigUint& modulus);

  [[nodiscard]] const BigUint& modulus() const { return n_; }

  /// x * R mod N (into Montgomery form). x must be < N.
  [[nodiscard]] BigUint to_mont(const BigUint& x) const;
  /// x * R^{-1} mod N (out of Montgomery form).
  [[nodiscard]] BigUint from_mont(const BigUint& x) const;
  /// Montgomery product: a * b * R^{-1} mod N, operands in Montgomery form.
  [[nodiscard]] BigUint mul(const BigUint& a, const BigUint& b) const;
  /// base^exp mod N for plain (non-Montgomery) base, result plain.
  [[nodiscard]] BigUint pow(const BigUint& base, const BigUint& exp) const;

 private:
  using Limb = BigUint::Limb;

  /// Raw CIOS kernel over limb vectors of length s_ (inputs zero-padded).
  /// `out` (length s_) must not alias `a` or `b`; `t` is caller-provided
  /// scratch of length s_ + 2 so the pow loop can reuse one buffer.
  void cios(const Limb* a, const Limb* b, Limb* out, Limb* t) const;
  [[nodiscard]] std::vector<Limb> padded(const BigUint& x) const;
  [[nodiscard]] static BigUint from_limbs(std::vector<Limb> v);
  /// x into Montgomery form, written to `out` (length s_); `t` is cios
  /// scratch of length s_ + 2.
  void to_mont_limbs(const BigUint& x, Limb* out, Limb* t) const;
  /// Montgomery-form `acc` (length s_) out of Montgomery form, clobbering
  /// `tmp` (length s_); `t` is cios scratch.
  [[nodiscard]] BigUint from_mont_limbs(const std::vector<Limb>& acc,
                                        std::vector<Limb>& tmp,
                                        std::vector<Limb>& t) const;
  /// 4-bit window digit of `exp` at window w (bits [4w, 4w+4)).
  [[nodiscard]] static unsigned window4(const BigUint& exp, std::size_t w);

  BigUint n_;
  std::vector<Limb> n_limbs_;  // modulus, padded to s_
  std::size_t s_ = 0;          // limb count of the modulus
  Limb n0inv_ = 0;             // -N^{-1} mod 2^64
  BigUint rr_;                 // R^2 mod N
  BigUint one_mont_;           // R mod N (1 in Montgomery form)
};

}  // namespace dubhe::bigint

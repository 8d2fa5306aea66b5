#include "bigint/montgomery.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace dubhe::bigint {

namespace {

/// Inverse of odd `x` mod 2^64 by Newton iteration. The seed y = x is
/// correct to 3 bits (x * x = 1 mod 8 for odd x) and each step doubles the
/// number of correct low bits: 3 -> 6 -> 12 -> 24 -> 48 -> 96 >= 64.
std::uint64_t inv64(std::uint64_t x) {
  std::uint64_t y = x;
  for (int i = 0; i < 5; ++i) y *= 2u - x * y;
  return y;
}

}  // namespace

Montgomery::Montgomery(const BigUint& modulus) : n_(modulus) {
  if (n_.is_zero() || !n_.is_odd()) {
    throw std::invalid_argument("Montgomery: modulus must be odd and non-zero");
  }
  s_ = n_.limb_count();
  n_limbs_.resize(s_);
  for (std::size_t i = 0; i < s_; ++i) n_limbs_[i] = n_.limb(i);
  n0inv_ = 0u - inv64(n_limbs_[0]);

  // R = 2^(64 s); compute R mod N and R^2 mod N with plain division once.
  const BigUint r = BigUint::pow2(kLimbBits * s_) % n_;
  one_mont_ = r;
  rr_ = r.mul_mod(r, n_);
}

std::vector<Montgomery::Limb> Montgomery::padded(const BigUint& x) const {
  std::vector<Limb> v(s_, 0);
  for (std::size_t i = 0; i < s_; ++i) v[i] = x.limb(i);
  return v;
}

BigUint Montgomery::from_limbs(std::vector<Limb> v) {
  BigUint r;
  r.limbs_ = std::move(v);
  r.trim();
  return r;
}

void Montgomery::cios(const Limb* a, const Limb* b, Limb* out, Limb* t) const {
  const std::size_t s = s_;
  const Limb* n = n_limbs_.data();
  for (std::size_t i = 0; i < s + 2; ++i) t[i] = 0;
  for (std::size_t i = 0; i < s; ++i) {
    // t += a * b[i]
    const Limb bi = b[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      t[j] = mac(t[j], a[j], bi, carry);
    }
    Limb c2 = 0;
    t[s] = addc(t[s], carry, c2);
    t[s + 1] += c2;

    // Reduce: add m * N where m makes the low limb vanish, then shift.
    const Limb m = t[0] * n0inv_;
    carry = 0;
    (void)mac(t[0], m, n[0], carry);  // low limb is zero by construction
    for (std::size_t j = 1; j < s; ++j) {
      t[j - 1] = mac(t[j], m, n[j], carry);
    }
    c2 = 0;
    t[s - 1] = addc(t[s], carry, c2);
    t[s] = t[s + 1] + c2;  // t fits s+1 limbs: the running value stays < 2N
    t[s + 1] = 0;
  }
  // Conditional final subtraction: result < 2N, reduce to < N.
  bool ge = t[s] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = s; i-- > 0;) {
      if (t[i] != n[i]) { ge = t[i] > n[i]; break; }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < s; ++i) {
      out[i] = subb(t[i], n[i], borrow);
    }
  } else {
    for (std::size_t i = 0; i < s; ++i) out[i] = t[i];
  }
}

BigUint Montgomery::mul(const BigUint& a, const BigUint& b) const {
  const std::vector<Limb> pa = padded(a), pb = padded(b);
  std::vector<Limb> out(s_), t(s_ + 2);
  cios(pa.data(), pb.data(), out.data(), t.data());
  return from_limbs(std::move(out));
}

BigUint Montgomery::to_mont(const BigUint& x) const {
  return mul(x, rr_);
}

BigUint Montgomery::from_mont(const BigUint& x) const {
  return mul(x, BigUint{1});
}

void Montgomery::to_mont_limbs(const BigUint& x, Limb* out, Limb* t) const {
  const std::vector<Limb> px = padded(x), prr = padded(rr_);
  cios(px.data(), prr.data(), out, t);
}

BigUint Montgomery::from_mont_limbs(const std::vector<Limb>& acc,
                                    std::vector<Limb>& tmp,
                                    std::vector<Limb>& t) const {
  // Out of Montgomery form: multiply by 1.
  std::vector<Limb> one(s_, 0);
  one[0] = 1;
  cios(acc.data(), one.data(), tmp.data(), t.data());
  return from_limbs(std::move(tmp));
}

unsigned Montgomery::window4(const BigUint& exp, std::size_t w) {
  unsigned idx = 0;
  for (int k = 3; k >= 0; --k) {
    idx = (idx << 1) | (exp.bit(w * 4 + static_cast<std::size_t>(k)) ? 1u : 0u);
  }
  return idx;
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp) const {
  if (exp.is_zero()) return BigUint{1} % n_;

  // All intermediates live in fixed-size limb buffers; the window table,
  // accumulator, and scratch are allocated once up front.
  std::vector<Limb> t(s_ + 2), tmp(s_);
  std::vector<Limb> bm(s_);
  to_mont_limbs(base % n_, bm.data(), t.data());

  // Precompute bm^0 .. bm^15 for a fixed 4-bit window.
  std::array<std::vector<Limb>, 16> table;
  table[0] = padded(one_mont_);
  for (std::size_t i = 1; i < 16; ++i) {
    table[i].resize(s_);
    cios(table[i - 1].data(), bm.data(), table[i].data(), t.data());
  }

  const std::size_t nbits = exp.bit_length();
  const std::size_t nwindows = (nbits + 3) / 4;
  std::vector<Limb> acc = padded(one_mont_);
  for (std::size_t w = nwindows; w-- > 0;) {
    for (int sq = 0; sq < 4; ++sq) {
      cios(acc.data(), acc.data(), tmp.data(), t.data());
      acc.swap(tmp);
    }
    const unsigned idx = window4(exp, w);
    if (idx != 0) {
      cios(acc.data(), table[idx].data(), tmp.data(), t.data());
      acc.swap(tmp);
    }
  }
  return from_mont_limbs(acc, tmp, t);
}

}  // namespace dubhe::bigint

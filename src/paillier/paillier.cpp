#include "paillier/paillier.hpp"

#include <stdexcept>

#include "bigint/prime.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"

namespace dubhe::he {

struct FactorContext {
  FactorContext(const BigUint& p_in, const BigUint& q_in)
      : p(p_in),
        q(q_in),
        p_sq(p * p),
        q_sq(q * q),
        mont_p(p),
        mont_q(q),
        mont_p2(p_sq),
        mont_q2(q_sq),
        e_p(q % (p - BigUint{1})),
        e_q(p % (q - BigUint{1})),
        q_sq_inv_p_sq(BigUint::mod_inverse(q_sq % p_sq, p_sq)) {}

  /// r^n mod n^2 from rp = r mod p and rq = r mod q (both non-zero).
  [[nodiscard]] BigUint noise(const BigUint& rp, const BigUint& rq) const {
    const BigUint xp = mont_p2.pow(mont_p.pow(rp, e_p), p);
    const BigUint xq = mont_q2.pow(mont_q.pow(rq, e_q), q);
    // Garner: x = xq + q^2 * ((xp - xq) * (q^2)^{-1} mod p^2), x < n^2.
    const BigUint xq_p = xq % p_sq;
    const BigUint diff = xp >= xq_p ? xp - xq_p : p_sq - (xq_p - xp);
    return xq + q_sq * diff.mul_mod(q_sq_inv_p_sq, p_sq);
  }

  BigUint p, q, p_sq, q_sq;
  bigint::Montgomery mont_p, mont_q, mont_p2, mont_q2;
  BigUint e_p, e_q;       // q mod (p-1), p mod (q-1): r^n mod p = r^e_p mod p
  BigUint q_sq_inv_p_sq;  // (q^2)^{-1} mod p^2
};

namespace {

/// Which noise path an encryption took; a label of the encrypt metrics.
enum class NoisePath { kFixedBase, kCrt, kPlain };

/// Crypto-op telemetry (counts + latency histograms per noise path).
/// Out-of-band: no RNG or ciphertext state is touched, so instrumented and
/// uninstrumented runs are byte-identical.
telemetry::Histogram& encrypt_hist(NoisePath path) {
  static telemetry::Histogram& fb = telemetry::histogram(
      "dubhe_paillier_encrypt_seconds{mode=\"fixed_base\"}");
  static telemetry::Histogram& crt =
      telemetry::histogram("dubhe_paillier_encrypt_seconds{mode=\"crt\"}");
  static telemetry::Histogram& plain =
      telemetry::histogram("dubhe_paillier_encrypt_seconds{mode=\"plain\"}");
  return path == NoisePath::kFixedBase ? fb : path == NoisePath::kCrt ? crt : plain;
}
telemetry::Counter& encrypt_count(NoisePath path) {
  static telemetry::Counter& fb =
      telemetry::counter("dubhe_paillier_encrypt_total{mode=\"fixed_base\"}");
  static telemetry::Counter& crt =
      telemetry::counter("dubhe_paillier_encrypt_total{mode=\"crt\"}");
  static telemetry::Counter& plain =
      telemetry::counter("dubhe_paillier_encrypt_total{mode=\"plain\"}");
  return path == NoisePath::kFixedBase ? fb : path == NoisePath::kCrt ? crt : plain;
}

}  // namespace

PublicKey::PublicKey(BigUint n)
    : n_(std::move(n)),
      n_sq_(n_ * n_),
      mont_n2_(std::make_shared<bigint::Montgomery>(n_sq_)) {}

std::size_t PublicKey::ciphertext_bytes() const { return (2 * key_bits() + 7) / 8; }

std::size_t PublicKey::plaintext_bytes() const { return (key_bits() + 7) / 8; }

Ciphertext PublicKey::encrypt_deterministic(const BigUint& m) const {
  if (m >= n_) throw std::out_of_range("Paillier: plaintext must be < n");
  // g^m with g = n+1: (1 + m*n) mod n^2 — a single multiplication. The
  // reduction is free: m <= n-1 gives 1 + m*n <= n^2 - n + 1 < n^2, so no
  // division is needed.
  return Ciphertext{BigUint{1} + m * n_};
}

Ciphertext PublicKey::encrypt(const BigUint& m, bigint::EntropySource& rng) const {
  const NoisePath path = noise_table_ != nullptr ? NoisePath::kFixedBase
                         : factors_ != nullptr  ? NoisePath::kCrt
                                                : NoisePath::kPlain;
  encrypt_count(path).inc();
  telemetry::ScopedTimer timer(encrypt_hist(path));
  Ciphertext gm = encrypt_deterministic(m);
  return rerandomize(gm, rng);
}

Ciphertext PublicKey::rerandomize(const Ciphertext& a, bigint::EntropySource& rng) const {
  BigUint rn;
  if (noise_table_ != nullptr) {
    // Fixed-base path: noise = (h^n)^x, one table product per 4 bits of x.
    BigUint x;
    do {
      x = bigint::random_bits(rng, noise_bits_);
    } while (x.is_zero());
    rn = noise_table_->pow(x);
  } else if (factors_ != nullptr) {
    // Key-holder path: the public path's draws and acceptance, r^n by CRT.
    BigUint rp, rq;
    do {
      const BigUint r = bigint::random_below(rng, n_);
      rp = r % factors_->p;
      rq = r % factors_->q;
    } while (rp.is_zero() || rq.is_zero());
    rn = factors_->noise(rp, rq);
  } else {
    BigUint r;
    do {
      r = bigint::random_below(rng, n_);
    } while (r.is_zero() || !BigUint::gcd(r, n_).is_one());
    rn = mont_n2_->pow(r, n_);
  }
  return Ciphertext{a.c.mul_mod(rn, n_sq_)};
}

void PublicKey::precompute_noise(bigint::EntropySource& rng, std::size_t noise_bits) {
  if (n_.is_zero()) throw std::logic_error("Paillier: empty public key");
  noise_bits_ = noise_bits == 0 ? key_bits() / 2 : noise_bits;
  BigUint h;
  do {
    h = bigint::random_below(rng, n_sq_);
  } while (h.is_zero() || h.is_one() || !BigUint::gcd(h, n_).is_one());
  const BigUint hn = mont_n2_->pow(h, n_);
  noise_table_ =
      std::make_shared<bigint::FixedBaseTable>(mont_n2_, hn, noise_bits_);
}

std::vector<Ciphertext> PublicKey::encrypt_batch(std::span<const BigUint> ms,
                                                 std::span<const StreamState> states,
                                                 const BatchOptions& opt) const {
  if (states.size() != ms.size()) {
    throw std::invalid_argument("encrypt_batch: one stream state per message required");
  }
  std::vector<Ciphertext> out(ms.size());
  core::parallel_for(ms.size(), opt.threads, [&](std::size_t i) {
    bigint::Xoshiro256ss stream(states[i]);
    out[i] = encrypt(ms[i], stream);
  });
  return out;
}

std::vector<Ciphertext> PublicKey::encrypt_batch(std::span<const BigUint> ms,
                                                 std::uint64_t seed,
                                                 const BatchOptions& opt) const {
  std::vector<Ciphertext> out(ms.size());
  core::parallel_for(ms.size(), opt.threads, [&](std::size_t i) {
    bigint::Xoshiro256ss stream(bigint::derive_seed(seed, i));
    out[i] = encrypt(ms[i], stream);
  });
  return out;
}

std::vector<Ciphertext> PublicKey::rerandomize_batch(std::span<const Ciphertext> cts,
                                                     std::uint64_t seed,
                                                     const BatchOptions& opt) const {
  std::vector<Ciphertext> out(cts.size());
  core::parallel_for(cts.size(), opt.threads, [&](std::size_t i) {
    bigint::Xoshiro256ss stream(bigint::derive_seed(seed, i));
    out[i] = rerandomize(cts[i], stream);
  });
  return out;
}

Ciphertext PublicKey::add(const Ciphertext& a, const Ciphertext& b) const {
  static telemetry::Counter& adds = telemetry::counter("dubhe_paillier_add_total");
  static telemetry::Histogram& hist =
      telemetry::histogram("dubhe_paillier_add_seconds");
  adds.inc();
  telemetry::ScopedTimer timer(hist);
  return Ciphertext{a.c.mul_mod(b.c, n_sq_)};
}

Ciphertext PublicKey::add_plain(const Ciphertext& a, const BigUint& m) const {
  return add(a, encrypt_deterministic(m % n_));
}

Ciphertext PublicKey::mul_plain(const Ciphertext& a, const BigUint& k) const {
  return Ciphertext{mont_n2_->pow(a.c, k)};
}

BigUint PrivateKey::l_function(const BigUint& x, const BigUint& d) {
  // L(x) = (x - 1) / d, exact by construction for valid inputs.
  return (x - BigUint{1}) / d;
}

PrivateKey::PrivateKey(const BigUint& p, const BigUint& q) : p_(p), q_(q) {
  if (p == q) throw std::invalid_argument("Paillier: p and q must differ");
  if (!p.is_odd() || !q.is_odd()) {
    throw std::invalid_argument("Paillier: p and q must be odd primes");
  }
  const BigUint n = p * q;
  pub_ = PublicKey(n);
  pub_.factors_ = std::make_shared<const FactorContext>(p, q);
  const FactorContext& f = *pub_.factors_;

  const BigUint p1 = p - BigUint{1}, q1 = q - BigUint{1};
  // CRT helpers: hp = L_p(g^{p-1} mod p^2)^{-1} mod p, likewise hq.
  // With g = n+1: g^{p-1} mod p^2 = 1 + (p-1)*n mod p^2.
  const BigUint gp = (BigUint{1} + p1 * n) % f.p_sq;
  const BigUint gq = (BigUint{1} + q1 * n) % f.q_sq;
  hp_ = BigUint::mod_inverse(l_function(gp, p) % p, p);
  hq_ = BigUint::mod_inverse(l_function(gq, q) % q, q);
  q_inv_p_ = BigUint::mod_inverse(q % p, p);

  // Textbook route: lambda = lcm(p-1, q-1), mu = L(g^lambda mod n^2)^{-1} mod n.
  lambda_ = BigUint::lcm(p1, q1);
  const BigUint gl = (BigUint{1} + lambda_ * n) % pub_.n_squared();
  mu_ = BigUint::mod_inverse(l_function(gl, n) % n, n);
}

BigUint PrivateKey::decrypt(const Ciphertext& ct) const {
  static telemetry::Counter& decrypts =
      telemetry::counter("dubhe_paillier_decrypt_total");
  static telemetry::Histogram& hist =
      telemetry::histogram("dubhe_paillier_decrypt_seconds");
  decrypts.inc();
  telemetry::ScopedTimer timer(hist);
  if (ct.c >= pub_.n_squared()) {
    throw std::out_of_range("Paillier: ciphertext out of range");
  }
  const FactorContext& f = *pub_.factors_;
  const BigUint p1 = p_ - BigUint{1}, q1 = q_ - BigUint{1};
  const BigUint mp = (l_function(f.mont_p2.pow(ct.c % f.p_sq, p1), p_) % p_)
                         .mul_mod(hp_, p_);
  const BigUint mq = (l_function(f.mont_q2.pow(ct.c % f.q_sq, q1), q_) % q_)
                         .mul_mod(hq_, q_);
  // CRT recombination: m = mq + q * ((mp - mq) * q^{-1} mod p).
  BigUint diff;
  if (mp >= mq % p_) {
    diff = mp - (mq % p_);
  } else {
    diff = p_ - ((mq % p_) - mp);
  }
  const BigUint t = diff.mul_mod(q_inv_p_, p_);
  return mq + q_ * t;
}

std::vector<BigUint> PrivateKey::decrypt_batch(std::span<const Ciphertext> cts,
                                               const BatchOptions& opt) const {
  std::vector<BigUint> out(cts.size());
  core::parallel_for(cts.size(), opt.threads,
                     [&](std::size_t i) { out[i] = decrypt(cts[i]); });
  return out;
}

BigUint PrivateKey::decrypt_textbook(const Ciphertext& ct) const {
  const BigUint& n = pub_.n();
  const BigUint& n2 = pub_.n_squared();
  const BigUint cl = ct.c.pow_mod(lambda_, n2);
  return (l_function(cl, n) % n).mul_mod(mu_, n);
}

Keypair Keypair::generate(bigint::EntropySource& rng, std::size_t key_bits) {
  if (key_bits < 16) throw std::invalid_argument("Paillier: key too small");
  const std::size_t half = key_bits / 2;
  for (;;) {
    const BigUint p = bigint::random_prime(rng, half);
    const BigUint q = bigint::random_prime(rng, key_bits - half);
    if (p == q) continue;
    if ((p * q).bit_length() != key_bits) continue;
    PrivateKey prv(p, q);
    PublicKey pub = prv.public_key();
    return Keypair{std::move(pub), std::move(prv)};
  }
}

std::vector<std::uint8_t> serialize(const Ciphertext& ct, const PublicKey& pk) {
  const std::size_t body = pk.ciphertext_bytes();
  std::vector<std::uint8_t> out(4 + body);
  out[0] = static_cast<std::uint8_t>(body >> 24);
  out[1] = static_cast<std::uint8_t>(body >> 16);
  out[2] = static_cast<std::uint8_t>(body >> 8);
  out[3] = static_cast<std::uint8_t>(body);
  const std::vector<std::uint8_t> mag = ct.c.to_bytes_be(body);
  std::copy(mag.begin(), mag.end(), out.begin() + 4);
  return out;
}

Ciphertext deserialize_ciphertext(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) throw std::invalid_argument("ciphertext: short buffer");
  const std::size_t body = (static_cast<std::size_t>(bytes[0]) << 24) |
                           (static_cast<std::size_t>(bytes[1]) << 16) |
                           (static_cast<std::size_t>(bytes[2]) << 8) |
                           static_cast<std::size_t>(bytes[3]);
  if (bytes.size() < 4 + body) throw std::invalid_argument("ciphertext: truncated");
  return Ciphertext{BigUint::from_bytes_be(bytes.subspan(4, body))};
}

namespace {

void append_field(std::vector<std::uint8_t>& out, const BigUint& v) {
  const std::vector<std::uint8_t> mag = v.to_bytes_be();
  const std::size_t body = mag.size();
  out.push_back(static_cast<std::uint8_t>(body >> 24));
  out.push_back(static_cast<std::uint8_t>(body >> 16));
  out.push_back(static_cast<std::uint8_t>(body >> 8));
  out.push_back(static_cast<std::uint8_t>(body));
  out.insert(out.end(), mag.begin(), mag.end());
}

BigUint read_field(std::span<const std::uint8_t>& bytes) {
  if (bytes.size() < 4) throw std::invalid_argument("key field: short buffer");
  const std::size_t body = (static_cast<std::size_t>(bytes[0]) << 24) |
                           (static_cast<std::size_t>(bytes[1]) << 16) |
                           (static_cast<std::size_t>(bytes[2]) << 8) |
                           static_cast<std::size_t>(bytes[3]);
  if (bytes.size() < 4 + body) throw std::invalid_argument("key field: truncated");
  // append_field writes trimmed magnitudes; accept only that canonical form
  // so a parsed field always re-serializes to the identical bytes (the net
  // layer's exact-size accounting and byte-identity tests rely on it).
  if (body > 0 && bytes[4] == 0) {
    throw std::invalid_argument("key field: non-canonical leading zero");
  }
  BigUint v = BigUint::from_bytes_be(bytes.subspan(4, body));
  bytes = bytes.subspan(4 + body);
  return v;
}

}  // namespace

std::vector<std::uint8_t> serialize(const PublicKey& pk) {
  std::vector<std::uint8_t> out{'P'};
  append_field(out, pk.n());
  return out;
}

PublicKey deserialize_public_key(std::span<const std::uint8_t> bytes) {
  return deserialize_public_key_prefix(bytes);
}

PublicKey deserialize_public_key_prefix(std::span<const std::uint8_t>& bytes) {
  if (bytes.empty() || bytes[0] != 'P') {
    throw std::invalid_argument("public key: bad tag");
  }
  bytes = bytes.subspan(1);
  return PublicKey(read_field(bytes));
}

std::vector<std::uint8_t> serialize(const PrivateKey& prv) {
  std::vector<std::uint8_t> out{'S'};
  append_field(out, prv.p());
  append_field(out, prv.q());
  return out;
}

PrivateKey deserialize_private_key(std::span<const std::uint8_t> bytes) {
  return deserialize_private_key_prefix(bytes);
}

PrivateKey deserialize_private_key_prefix(std::span<const std::uint8_t>& bytes) {
  if (bytes.empty() || bytes[0] != 'S') {
    throw std::invalid_argument("private key: bad tag");
  }
  bytes = bytes.subspan(1);
  const BigUint p = read_field(bytes);
  const BigUint q = read_field(bytes);
  return PrivateKey(p, q);
}

namespace {
/// Length of one length-prefixed trimmed-magnitude field.
std::size_t field_size(const BigUint& v) { return 4 + (v.bit_length() + 7) / 8; }
}  // namespace

std::size_t serialized_size(const PublicKey& pk) { return 1 + field_size(pk.n()); }

std::size_t serialized_size(const PrivateKey& prv) {
  return 1 + field_size(prv.p()) + field_size(prv.q());
}

}  // namespace dubhe::he

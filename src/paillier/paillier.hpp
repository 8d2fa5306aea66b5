#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/random.hpp"

namespace dubhe::he {

using bigint::BigUint;

/// A Paillier ciphertext: an element of Z*_{n^2}. Value semantics; the
/// ciphertext carries no key material, so all homomorphic operations live on
/// PublicKey, which owns the cached Montgomery context for n^2.
struct Ciphertext {
  BigUint c;

  bool operator==(const Ciphertext&) const = default;
};

/// Options for the batch APIs. `threads` caps the shards handed to the
/// shared core::ParallelRuntime: 1 (the default) runs serially on the
/// caller, 0 uses every pool worker. Batch results are byte-identical for
/// any thread count — each item draws from its own independently seeded
/// RNG stream (an explicit per-item seed, or bigint::derive_seed of a
/// batch seed), never from a shared one.
struct BatchOptions {
  std::size_t threads = 1;
};

/// What the factorization n = p*q buys: Montgomery contexts for p, q, p^2
/// and q^2 plus the CRT constants behind key-holder encryption and CRT
/// decryption. Defined in paillier.cpp; a PrivateKey builds one and shares
/// it with the PublicKey it exposes. Never serialized.
struct FactorContext;

/// Paillier public key with g = n + 1 (the standard "simple variant", also
/// what python-paillier uses). With this generator, encryption needs no
/// exponentiation for the message part: g^m = 1 + m*n (mod n^2).
class PublicKey {
 public:
  PublicKey() = default;
  explicit PublicKey(BigUint n);

  [[nodiscard]] const BigUint& n() const { return n_; }
  [[nodiscard]] const BigUint& n_squared() const { return n_sq_; }
  /// Modulus size in bits (the "key size": 2048 in the paper's setup).
  [[nodiscard]] std::size_t key_bits() const { return n_.bit_length(); }
  /// Exact serialized size of one ciphertext in bytes: ceil(2*key_bits/8).
  [[nodiscard]] std::size_t ciphertext_bytes() const;
  /// Exact serialized size of one plaintext in bytes: ceil(key_bits/8).
  [[nodiscard]] std::size_t plaintext_bytes() const;

  /// Encrypts m in [0, n). Throws std::out_of_range otherwise.
  /// c = (1 + m*n) * r^n mod n^2 with r uniform in Z*_n.
  [[nodiscard]] Ciphertext encrypt(const BigUint& m, bigint::EntropySource& rng) const;
  /// Deterministic "encryption" with r = 1 — NOT semantically secure; used
  /// only in tests and to build homomorphic constants cheaply.
  [[nodiscard]] Ciphertext encrypt_deterministic(const BigUint& m) const;

  /// Homomorphic addition: Dec(add(a, b)) = Dec(a) + Dec(b) mod n.
  [[nodiscard]] Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
  /// Adds a plaintext constant: Dec(add_plain(a, m)) = Dec(a) + m mod n.
  [[nodiscard]] Ciphertext add_plain(const Ciphertext& a, const BigUint& m) const;
  /// Scalar multiplication: Dec(mul_plain(a, k)) = k * Dec(a) mod n.
  [[nodiscard]] Ciphertext mul_plain(const Ciphertext& a, const BigUint& k) const;
  /// Re-randomizes a ciphertext (multiplies by a fresh encryption of zero),
  /// unlinking it from its origin without changing the plaintext.
  ///
  /// The noise r^n mod n^2 comes from the factor context when the key was
  /// exposed by a PrivateKey (the CRT path), else from a direct pow mod n^2
  /// with r uniform in Z*_n (the public path). The CRT path
  /// draws the same r from the same RNG calls, accepts it under the
  /// equivalent test r mod p != 0 and r mod q != 0 (= gcd(r, n) == 1), and
  /// computes r^n mod p^2 as ((r mod p)^(q mod (p-1)) mod p)^p mod p^2 (the
  /// n-th power kills the order-p part of Z*_{p^2}, and x -> x^p mod p^2
  /// depends only on x mod p), likewise mod q^2, then recombines by Garner.
  /// Its ciphertexts are byte-identical to the public path's at about a
  /// third of the cost.
  [[nodiscard]] Ciphertext rerandomize(const Ciphertext& a, bigint::EntropySource& rng) const;

  /// True when the key came from a PrivateKey and so encrypts by CRT.
  [[nodiscard]] bool has_factor_context() const { return factors_ != nullptr; }

  /// Per-item RNG stream state for the batch APIs: a full 256-bit
  /// xoshiro256** state, so each item's randomization carries the caller's
  /// entropy at the generator's native width (no 64-bit bottleneck).
  using StreamState = std::array<std::uint64_t, 4>;

  /// Batch encryption: one ciphertext per message, item i randomized from
  /// its own stream seeded with states[i] (states.size() must equal
  /// ms.size(); throws std::invalid_argument otherwise). See BatchOptions
  /// for the thread-count-invariance contract.
  [[nodiscard]] std::vector<Ciphertext> encrypt_batch(
      std::span<const BigUint> ms, std::span<const StreamState> states,
      const BatchOptions& opt = {}) const;
  /// Reproducibility convenience: seeds item i's stream with
  /// bigint::derive_seed(seed, i) — here the whole batch is deliberately a
  /// function of one 64-bit seed (the experiment stack's seeded-
  /// reproducibility contract). Deployments encrypting under real entropy
  /// should use the StreamState overload (what EncryptedVector::encrypt
  /// does) or per-item encrypt().
  [[nodiscard]] std::vector<Ciphertext> encrypt_batch(
      std::span<const BigUint> ms, std::uint64_t seed,
      const BatchOptions& opt = {}) const;

  bool operator==(const PublicKey& o) const { return n_ == o.n_; }

 private:
  friend class PrivateKey;

  BigUint n_;
  BigUint n_sq_;
  std::shared_ptr<const bigint::Montgomery> mont_n2_;
  /// Set only by PrivateKey; shared across copies of the key.
  std::shared_ptr<const FactorContext> factors_;
};

/// Paillier private key. Decryption uses the CRT over p^2 and q^2, which is
/// ~4x faster than the textbook lambda/mu route; the textbook route is kept
/// as decrypt_textbook() and cross-checked in tests. public_key() carries
/// the key's FactorContext, so encryption under it takes the CRT path.
class PrivateKey {
 public:
  PrivateKey() = default;
  /// Builds the key from the two primes. Throws std::invalid_argument if
  /// p == q or either is not odd.
  PrivateKey(const BigUint& p, const BigUint& q);

  [[nodiscard]] const PublicKey& public_key() const { return pub_; }
  [[nodiscard]] const BigUint& p() const { return p_; }
  [[nodiscard]] const BigUint& q() const { return q_; }

  /// CRT decryption.
  [[nodiscard]] BigUint decrypt(const Ciphertext& ct) const;
  /// Batch CRT decryption over the shared runtime. Deterministic for any
  /// thread count (decryption consumes no randomness).
  [[nodiscard]] std::vector<BigUint> decrypt_batch(std::span<const Ciphertext> cts,
                                                   const BatchOptions& opt = {}) const;
  /// Textbook decryption: L(c^lambda mod n^2) * mu mod n.
  [[nodiscard]] BigUint decrypt_textbook(const Ciphertext& ct) const;

 private:
  [[nodiscard]] static BigUint l_function(const BigUint& x, const BigUint& d);

  PublicKey pub_;        // carries the FactorContext (p^2/q^2 contexts)
  BigUint p_, q_;
  BigUint hp_, hq_;      // CRT decryption helpers
  BigUint q_inv_p_;      // q^{-1} mod p, for CRT recombination
  BigUint lambda_, mu_;  // textbook route
};

/// Key pair generation parameters and result.
struct Keypair {
  PublicKey pub;
  PrivateKey prv;

  /// Generates a key with an exactly `key_bits`-bit modulus n = p*q
  /// (p, q random primes of key_bits/2 bits). The paper's configuration is
  /// key_bits = 2048.
  static Keypair generate(bigint::EntropySource& rng, std::size_t key_bits);
};

/// Serialization — length-prefixed big-endian magnitudes. These byte layouts
/// are what the FL channel layer counts when reporting communication volume.
/// Key material framing: a 1-byte tag ('P' public / 'S' secret) followed by
/// length-prefixed components (n for public keys; p then q for private
/// keys — everything else is recomputed on load).
std::vector<std::uint8_t> serialize(const Ciphertext& ct, const PublicKey& pk);
Ciphertext deserialize_ciphertext(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> serialize(const PublicKey& pk);
PublicKey deserialize_public_key(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> serialize(const PrivateKey& prv);
PrivateKey deserialize_private_key(std::span<const std::uint8_t> bytes);

/// Advancing variants for keys embedded inside larger payloads (the
/// encrypted-vector wire forms, net key-material frames): parse the key at
/// the front of `bytes` and move the span past its canonical encoding, so
/// callers never re-measure the field layout themselves.
PublicKey deserialize_public_key_prefix(std::span<const std::uint8_t>& bytes);
PrivateKey deserialize_private_key_prefix(std::span<const std::uint8_t>& bytes);

/// Exact byte counts of serialize() for key material, without building the
/// bytes — the basis of the exact channel accounting.
std::size_t serialized_size(const PublicKey& pk);
std::size_t serialized_size(const PrivateKey& prv);

}  // namespace dubhe::he

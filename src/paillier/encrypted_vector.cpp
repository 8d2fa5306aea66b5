#include "paillier/encrypted_vector.hpp"

#include <stdexcept>

#include "paillier/serial_util.hpp"

namespace dubhe::he {

EncryptedVector::EncryptedVector(PublicKey pk, std::vector<Ciphertext> slots)
    : pk_(std::move(pk)), slots_(std::move(slots)) {}

EncryptedVector EncryptedVector::encrypt(const PublicKey& pk,
                                         std::span<const std::uint64_t> values,
                                         bigint::EntropySource& rng,
                                         const BatchOptions& opt) {
  std::vector<BigUint> ms;
  std::vector<PublicKey::StreamState> states;
  ms.reserve(values.size());
  states.reserve(values.size());
  // A full 256-bit stream state drawn per slot (serially, so the draw order
  // is fixed): slot randomizations stay independently seeded at the
  // generator's native width even when the source is real entropy.
  for (const std::uint64_t v : values) {
    ms.emplace_back(v);
    states.push_back({rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()});
  }
  return EncryptedVector(pk, pk.encrypt_batch(ms, states, opt));
}

EncryptedVector EncryptedVector::zeros(const PublicKey& pk, std::size_t size) {
  std::vector<Ciphertext> slots(size, pk.encrypt_deterministic(BigUint{}));
  return EncryptedVector(pk, std::move(slots));
}

EncryptedVector& EncryptedVector::operator+=(const EncryptedVector& o) {
  if (slots_.size() != o.slots_.size()) {
    throw std::invalid_argument("EncryptedVector: size mismatch");
  }
  if (!(pk_ == o.pk_)) {
    throw std::invalid_argument("EncryptedVector: key mismatch");
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i] = pk_.add(slots_[i], o.slots_[i]);
  }
  return *this;
}

std::vector<std::uint64_t> EncryptedVector::decrypt(const PrivateKey& prv,
                                                    const BatchOptions& opt) const {
  const std::vector<BigUint> ms = prv.decrypt_batch(slots_, opt);
  std::vector<std::uint64_t> out;
  out.reserve(ms.size());
  for (const BigUint& m : ms) out.push_back(m.to_u64());
  return out;
}

std::size_t EncryptedVector::byte_size() const {
  return slots_.size() * (4 + pk_.ciphertext_bytes());
}

std::vector<std::uint8_t> EncryptedVector::serialize_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(byte_size());
  for (const Ciphertext& ct : slots_) {
    const auto bytes = serialize(ct, pk_);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

std::vector<std::uint8_t> serialize(const EncryptedVector& v) {
  const std::size_t slots = v.size();
  if (slots > std::size_t{0xFFFFFFFF}) {
    throw std::invalid_argument("EncryptedVector: too many slots to serialize");
  }
  std::vector<std::uint8_t> out;
  out.reserve(serialized_size(v.public_key(), slots));
  out.push_back('V');
  detail::put_u32_be(out, slots, "EncryptedVector slots");
  const auto pk_bytes = serialize(v.public_key());
  out.insert(out.end(), pk_bytes.begin(), pk_bytes.end());
  const auto slot_bytes = v.serialize_bytes();
  out.insert(out.end(), slot_bytes.begin(), slot_bytes.end());
  return out;
}

EncryptedVector deserialize_encrypted_vector(std::span<const std::uint8_t> bytes) {
  if (bytes.empty() || bytes[0] != 'V') {
    throw std::invalid_argument("EncryptedVector: bad tag");
  }
  bytes = bytes.subspan(1);
  const std::size_t slots = detail::get_u32_be(bytes, "EncryptedVector");
  PublicKey pk = deserialize_public_key_prefix(bytes);
  const std::size_t body = pk.ciphertext_bytes();
  if (bytes.size() != slots * (4 + body)) {
    throw std::invalid_argument("EncryptedVector: slot payload size mismatch");
  }
  std::vector<Ciphertext> cts;
  cts.reserve(slots);
  const BigUint& n2 = pk.n_squared();
  for (std::size_t i = 0; i < slots; ++i) {
    // Canonical form only: every slot's declared length must be the key's
    // fixed ciphertext width, so no slot can smuggle ignored garbage and
    // serialize(deserialize(x)) == x holds byte for byte.
    if (detail::get_u32_be(bytes, "EncryptedVector slot") != body) {
      throw std::invalid_argument("EncryptedVector: non-canonical slot length");
    }
    Ciphertext ct{BigUint::from_bytes_be(bytes.first(body))};
    if (!(ct.c < n2)) {
      throw std::invalid_argument("EncryptedVector: slot outside Z_{n^2}");
    }
    cts.push_back(std::move(ct));
    bytes = bytes.subspan(body);
  }
  return EncryptedVector(std::move(pk), std::move(cts));
}

std::size_t serialized_size(const PublicKey& pk, std::size_t slots) {
  // 'V' + u32 count + embedded key + slots * (u32 len + ciphertext).
  return 1 + 4 + serialized_size(pk) + slots * (4 + pk.ciphertext_bytes());
}

}  // namespace dubhe::he

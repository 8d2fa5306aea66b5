#include "paillier/paillier.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

#include "core/telemetry.hpp"
#include "paillier/encrypted_vector.hpp"

namespace dubhe::he {
namespace {

/// Shared fixture: key generation is the slow part, do it once per width.
class PaillierParam : public ::testing::TestWithParam<std::size_t> {
 protected:
  static Keypair make_keypair(std::size_t bits) {
    bigint::Xoshiro256ss rng(bits * 131 + 7);
    return Keypair::generate(rng, bits);
  }
  void SetUp() override {
    static std::map<std::size_t, Keypair>* cache = new std::map<std::size_t, Keypair>();
    auto it = cache->find(GetParam());
    if (it == cache->end()) {
      it = cache->emplace(GetParam(), make_keypair(GetParam())).first;
    }
    kp_ = &it->second;
    rng_ = std::make_unique<bigint::Xoshiro256ss>(GetParam() + 3);
  }
  const Keypair* kp_ = nullptr;
  std::unique_ptr<bigint::Xoshiro256ss> rng_;
};

TEST_P(PaillierParam, ModulusHasRequestedBits) {
  EXPECT_EQ(kp_->pub.key_bits(), GetParam());
  EXPECT_EQ(kp_->pub.n_squared(), kp_->pub.n() * kp_->pub.n());
}

TEST_P(PaillierParam, EncryptDecryptRoundTrip) {
  for (const std::uint64_t m : {0ULL, 1ULL, 2ULL, 999ULL, 123456789ULL}) {
    const Ciphertext ct = kp_->pub.encrypt(BigUint{m}, *rng_);
    EXPECT_EQ(kp_->prv.decrypt(ct).to_u64(), m);
  }
}

TEST_P(PaillierParam, CrtAndTextbookDecryptionsAgree) {
  for (int i = 0; i < 5; ++i) {
    const BigUint m = bigint::random_below(*rng_, kp_->pub.n());
    const Ciphertext ct = kp_->pub.encrypt(m, *rng_);
    EXPECT_EQ(kp_->prv.decrypt(ct), m);
    EXPECT_EQ(kp_->prv.decrypt_textbook(ct), m);
  }
}

TEST_P(PaillierParam, HomomorphicAdditionProperty) {
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t a = rng_->next_u64() % 100000, b = rng_->next_u64() % 100000;
    const Ciphertext ca = kp_->pub.encrypt(BigUint{a}, *rng_);
    const Ciphertext cb = kp_->pub.encrypt(BigUint{b}, *rng_);
    EXPECT_EQ(kp_->prv.decrypt(kp_->pub.add(ca, cb)).to_u64(), a + b);
  }
}

TEST_P(PaillierParam, AdditionWrapsModN) {
  const BigUint big = kp_->pub.n() - BigUint{1};
  const Ciphertext ct = kp_->pub.encrypt(big, *rng_);
  const Ciphertext sum = kp_->pub.add(ct, kp_->pub.encrypt(BigUint{2}, *rng_));
  EXPECT_EQ(kp_->prv.decrypt(sum).to_u64(), 1u);  // (n-1) + 2 = 1 mod n
}

TEST_P(PaillierParam, AddPlainAndMulPlain) {
  const Ciphertext ct = kp_->pub.encrypt(BigUint{1000}, *rng_);
  EXPECT_EQ(kp_->prv.decrypt(kp_->pub.add_plain(ct, BigUint{234})).to_u64(), 1234u);
  EXPECT_EQ(kp_->prv.decrypt(kp_->pub.mul_plain(ct, BigUint{7})).to_u64(), 7000u);
  EXPECT_EQ(kp_->prv.decrypt(kp_->pub.mul_plain(ct, BigUint{})).to_u64(), 0u);
}

TEST_P(PaillierParam, RerandomizePreservesPlaintextChangesCiphertext) {
  const Ciphertext ct = kp_->pub.encrypt(BigUint{5555}, *rng_);
  const Ciphertext rr = kp_->pub.rerandomize(ct, *rng_);
  EXPECT_NE(ct.c, rr.c);
  EXPECT_EQ(kp_->prv.decrypt(rr).to_u64(), 5555u);
}

TEST_P(PaillierParam, ProbabilisticEncryptionDiffers) {
  const Ciphertext a = kp_->pub.encrypt(BigUint{42}, *rng_);
  const Ciphertext b = kp_->pub.encrypt(BigUint{42}, *rng_);
  EXPECT_NE(a.c, b.c);  // semantic security: same plaintext, fresh randomness
}

TEST_P(PaillierParam, PlaintextOutOfRangeThrows) {
  EXPECT_THROW(kp_->pub.encrypt(kp_->pub.n(), *rng_), std::out_of_range);
  EXPECT_THROW(kp_->pub.encrypt_deterministic(kp_->pub.n() + BigUint{1}),
               std::out_of_range);
}

TEST_P(PaillierParam, CiphertextOutOfRangeThrows) {
  EXPECT_THROW(kp_->prv.decrypt(Ciphertext{kp_->pub.n_squared()}), std::out_of_range);
}

TEST_P(PaillierParam, SerializationRoundTripAndSize) {
  const Ciphertext ct = kp_->pub.encrypt(BigUint{777}, *rng_);
  const auto bytes = serialize(ct, kp_->pub);
  EXPECT_EQ(bytes.size(), 4 + kp_->pub.ciphertext_bytes());
  EXPECT_EQ(deserialize_ciphertext(bytes), ct);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierParam, ::testing::Values(128, 256, 512));

TEST(Paillier, Paper2048BitConfiguration) {
  // One full-size check matching the paper's deployment (slow; run once).
  bigint::Xoshiro256ss rng(2048);
  const Keypair kp = Keypair::generate(rng, 2048);
  EXPECT_EQ(kp.pub.key_bits(), 2048u);
  EXPECT_EQ(kp.pub.ciphertext_bytes(), 512u);
  EXPECT_EQ(kp.pub.plaintext_bytes(), 256u);
  const Ciphertext ct = kp.pub.encrypt(BigUint{314159}, rng);
  EXPECT_EQ(kp.prv.decrypt(ct).to_u64(), 314159u);
}

TEST(Paillier, PrivateKeyRejectsBadPrimes) {
  EXPECT_THROW(PrivateKey(BigUint{7}, BigUint{7}), std::invalid_argument);
  EXPECT_THROW(PrivateKey(BigUint{8}, BigUint{7}), std::invalid_argument);
}

TEST(Paillier, KeygenRejectsTinyKeys) {
  bigint::Xoshiro256ss rng(1);
  EXPECT_THROW(Keypair::generate(rng, 8), std::invalid_argument);
}

TEST(Paillier, DeserializeRejectsTruncatedBuffers) {
  const std::vector<std::uint8_t> tiny{0, 0};
  EXPECT_THROW(deserialize_ciphertext(tiny), std::invalid_argument);
  const std::vector<std::uint8_t> lying{0, 0, 1, 0, 42};  // claims 256 bytes
  EXPECT_THROW(deserialize_ciphertext(lying), std::invalid_argument);
}

// --- key-holder CRT noise path ------------------------------------------------
//
// A key exposed by a PrivateKey encrypts by CRT; PublicKey(n) is the public
// reference. Fed identically seeded RNGs, the two must emit identical
// ciphertexts and leave their RNGs in identical states (same draws, same
// rejections).

/// Runs `seeds` encrypt + rerandomize pairs under both keys and returns how
/// many seeds' first draw r was rejected (gcd(r, n) != 1), so callers can
/// show the rejection branch fired.
std::size_t expect_crt_matches_public(const PrivateKey& prv, std::size_t seeds) {
  const PublicKey& crt = prv.public_key();
  const PublicKey pub(crt.n());
  EXPECT_TRUE(crt.has_factor_context());
  EXPECT_FALSE(pub.has_factor_context());
  std::size_t rejected = 0;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    bigint::Xoshiro256ss probe(seed);
    if (!BigUint::gcd(bigint::random_below(probe, pub.n()), pub.n()).is_one()) ++rejected;

    bigint::Xoshiro256ss msg_rng(seed + 1'000'000);
    const BigUint m = bigint::random_below(msg_rng, pub.n());
    bigint::Xoshiro256ss a(seed), b(seed);
    const Ciphertext ca = crt.encrypt(m, a);
    const Ciphertext cb = pub.encrypt(m, b);
    EXPECT_EQ(ca, cb) << "encrypt, key_bits=" << pub.key_bits() << " seed=" << seed;
    EXPECT_EQ(crt.rerandomize(ca, a), pub.rerandomize(cb, b))
        << "rerandomize, key_bits=" << pub.key_bits() << " seed=" << seed;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "RNG consumption, seed=" << seed;
    if (seed < 8) EXPECT_EQ(prv.decrypt(ca), m);
  }
  return rejected;
}

TEST(KeyHolderCrt, TinyKeysMatchPublicPathThroughRejections) {
  // 8-12-bit factors: r is divisible by p or q often enough that the
  // rejection-and-redraw branch runs many times over these seeds.
  std::size_t rejected = 0;
  for (const std::size_t bits : {16u, 18u, 20u, 22u, 24u}) {
    bigint::Xoshiro256ss rng(bits * 17 + 1);
    const Keypair kp = Keypair::generate(rng, bits);
    rejected += expect_crt_matches_public(kp.prv, 1000);
  }
  EXPECT_GT(rejected, 0u);
}

TEST(KeyHolderCrt, MatchesPublicPathAcrossKeySizes) {
  for (const auto& [bits, seeds] :
       {std::pair<std::size_t, std::size_t>{64, 200}, {256, 200}, {1024, 200}}) {
    bigint::Xoshiro256ss rng(bits * 131 + 7);
    const Keypair kp = Keypair::generate(rng, bits);
    (void)expect_crt_matches_public(kp.prv, seeds);
  }
}

TEST(KeyHolderCrt, MatchesPublicPathAt2048Bits) {
  bigint::Xoshiro256ss rng(2048);
  const Keypair kp = Keypair::generate(rng, 2048);
  (void)expect_crt_matches_public(kp.prv, 3);
}

TEST(KeyHolderCrt, FactorsNeverReachTheWire) {
  bigint::Xoshiro256ss rng(41);
  const Keypair kp = Keypair::generate(rng, 256);
  EXPECT_TRUE(kp.pub.has_factor_context());
  EXPECT_EQ(serialize(kp.pub), serialize(PublicKey(kp.pub.n())));
  EXPECT_EQ(serialized_size(kp.pub), serialize(kp.pub).size());
  EXPECT_FALSE(deserialize_public_key(serialize(kp.pub)).has_factor_context());
  // A private key rebuilt from its wire form exposes the context again.
  EXPECT_TRUE(deserialize_private_key(serialize(kp.prv)).public_key().has_factor_context());
}

TEST(KeyHolderCrt, EncryptMetricsNameThePath) {
  namespace tel = telemetry;
  bigint::Xoshiro256ss rng(43);
  const Keypair kp = Keypair::generate(rng, 128);
  tel::Counter& crt = tel::counter("dubhe_paillier_encrypt_total{mode=\"crt\"}");
  tel::Counter& plain = tel::counter("dubhe_paillier_encrypt_total{mode=\"plain\"}");
  tel::set_enabled(true);
  const std::uint64_t crt0 = crt.value(), plain0 = plain.value();
  (void)kp.pub.encrypt(BigUint{1}, rng);
  EXPECT_EQ(crt.value(), crt0 + 1);
  EXPECT_EQ(plain.value(), plain0);
  (void)PublicKey(kp.pub.n()).encrypt(BigUint{1}, rng);
  EXPECT_EQ(plain.value(), plain0 + 1);
  EXPECT_EQ(crt.value(), crt0 + 1);
  tel::set_enabled(false);
}

TEST(EncryptedVector, SlotwiseAggregation) {
  bigint::Xoshiro256ss rng(31);
  const Keypair kp = Keypair::generate(rng, 256);
  const std::vector<std::uint64_t> a{1, 0, 5, 7, 0}, b{2, 3, 0, 1, 0};
  auto ea = EncryptedVector::encrypt(kp.pub, a, rng);
  const auto eb = EncryptedVector::encrypt(kp.pub, b, rng);
  ea += eb;
  EXPECT_EQ(ea.decrypt(kp.prv), (std::vector<std::uint64_t>{3, 3, 5, 8, 0}));
}

TEST(EncryptedVector, ZerosIsAdditiveIdentity) {
  bigint::Xoshiro256ss rng(32);
  const Keypair kp = Keypair::generate(rng, 256);
  const std::vector<std::uint64_t> a{9, 8, 7};
  auto sum = EncryptedVector::zeros(kp.pub, 3);
  sum += EncryptedVector::encrypt(kp.pub, a, rng);
  EXPECT_EQ(sum.decrypt(kp.prv), a);
}

TEST(EncryptedVector, ManyClientOneHotSum) {
  // The registration pattern: 30 one-hot registries summing to a histogram.
  bigint::Xoshiro256ss rng(33);
  const Keypair kp = Keypair::generate(rng, 256);
  const std::size_t len = 8;
  auto sum = EncryptedVector::zeros(kp.pub, len);
  std::vector<std::uint64_t> expected(len, 0);
  for (int k = 0; k < 30; ++k) {
    std::vector<std::uint64_t> onehot(len, 0);
    const std::size_t slot = rng.next_below(len);
    onehot[slot] = 1;
    ++expected[slot];
    sum += EncryptedVector::encrypt(kp.pub, onehot, rng);
  }
  EXPECT_EQ(sum.decrypt(kp.prv), expected);
}

TEST(EncryptedVector, MismatchThrows) {
  bigint::Xoshiro256ss rng(34);
  const Keypair kp = Keypair::generate(rng, 256);
  const Keypair kp2 = Keypair::generate(rng, 256);
  auto a = EncryptedVector::encrypt(kp.pub, std::vector<std::uint64_t>{1, 2}, rng);
  const auto short_vec =
      EncryptedVector::encrypt(kp.pub, std::vector<std::uint64_t>{1}, rng);
  EXPECT_THROW(a += short_vec, std::invalid_argument);
  const auto other_key =
      EncryptedVector::encrypt(kp2.pub, std::vector<std::uint64_t>{1, 2}, rng);
  EXPECT_THROW(a += other_key, std::invalid_argument);
}

TEST(EncryptedVector, ByteSizeMatchesSerialization) {
  bigint::Xoshiro256ss rng(35);
  const Keypair kp = Keypair::generate(rng, 256);
  const auto v = EncryptedVector::encrypt(kp.pub, std::vector<std::uint64_t>{1, 2, 3}, rng);
  EXPECT_EQ(v.byte_size(), v.serialize_bytes().size());
  EXPECT_EQ(v.byte_size(), 3 * (4 + kp.pub.ciphertext_bytes()));
}

}  // namespace
}  // namespace dubhe::he

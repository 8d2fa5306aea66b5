// The shared crypto runtime: core::ParallelRuntime determinism, the batch
// Paillier APIs' thread-count invariance (byte-identical ciphertexts for any
// shard count), and FixedBaseTable agreement with plain Montgomery::pow.
// tools/ci.sh runs this suite under Release, ASan/UBSan (lifetime and UB
// bugs), and a dedicated ThreadSanitizer pass (data races in the pool —
// ASan cannot see those).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bigint/montgomery.hpp"
#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "core/registration.hpp"
#include "core/secure.hpp"
#include "data/partition.hpp"
#include "paillier/encrypted_vector.hpp"
#include "paillier/packing.hpp"
#include "stats/rng.hpp"

namespace dubhe {
namespace {

using bigint::BigUint;

// --- core::ParallelRuntime ---------------------------------------------------

TEST(ParallelRuntime, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                    std::size_t{0}}) {
    std::vector<int> hits(100, 0);
    core::parallel_for(hits.size(), threads, [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelRuntime, EmptyRangeIsNoop) {
  bool called = false;
  core::parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelRuntime, MoreThreadsThanItems) {
  std::vector<int> hits(3, 0);
  core::parallel_for(hits.size(), 16, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelRuntime, PropagatesTheFirstException) {
  EXPECT_THROW(core::parallel_for(
                   8, 4,
                   [](std::size_t i) {
                     if (i % 2 == 1) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ParallelRuntime, NestedCallsRunInlineWithoutDeadlock) {
  std::atomic<int> total{0};
  core::parallel_for(4, 4, [&](std::size_t) {
    core::parallel_for(8, 4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelRuntime, SharedInstanceHasWorkers) {
  EXPECT_GE(core::ParallelRuntime::instance().worker_count(), 1u);
}

// --- seed derivation ---------------------------------------------------------

TEST(DeriveSeed, StatsConventionMatchesBigintConvention) {
  // core/secure seeds clients via stats::derive_seed and the batch APIs seed
  // slots via bigint::derive_seed; both must stay one convention.
  for (std::uint64_t master : {0ull, 42ull, 0xdeadbeefdeadbeefull}) {
    for (std::uint64_t stream : {0ull, 1ull, 999ull}) {
      EXPECT_EQ(stats::derive_seed(master, stream),
                bigint::derive_seed(master, stream));
    }
  }
  EXPECT_NE(bigint::derive_seed(1, 0), bigint::derive_seed(1, 1));
  EXPECT_NE(bigint::derive_seed(1, 0), bigint::derive_seed(2, 0));
}

// --- FixedBaseTable ----------------------------------------------------------

BigUint odd_modulus(bigint::EntropySource& rng, std::size_t bits) {
  BigUint m = bigint::random_exact_bits(rng, bits);
  if (!m.is_odd()) m += BigUint{1};
  return m;
}

TEST(FixedBaseTable, MatchesPlainPowAcrossWidths) {
  bigint::Xoshiro256ss rng(7);
  // Moduli and exponent widths deliberately include non-limb-multiple sizes.
  for (const std::size_t mod_bits : {65u, 100u, 127u, 192u, 256u}) {
    const BigUint m = odd_modulus(rng, mod_bits);
    const auto ctx = std::make_shared<const bigint::Montgomery>(m);
    const BigUint base = bigint::random_below(rng, m);
    const std::size_t max_bits = 150;
    const bigint::FixedBaseTable table(ctx, base, max_bits);
    for (const std::size_t exp_bits : {1u, 3u, 37u, 63u, 64u, 65u, 100u, 150u}) {
      const BigUint exp = bigint::random_exact_bits(rng, exp_bits);
      EXPECT_EQ(table.pow(exp), ctx->pow(base, exp))
          << "mod_bits=" << mod_bits << " exp_bits=" << exp_bits;
    }
  }
}

TEST(FixedBaseTable, EdgeExponents) {
  bigint::Xoshiro256ss rng(8);
  const BigUint m = odd_modulus(rng, 128);
  const auto ctx = std::make_shared<const bigint::Montgomery>(m);
  const BigUint base = bigint::random_below(rng, m);
  const bigint::FixedBaseTable table(ctx, base, 64);

  EXPECT_EQ(table.pow(BigUint{}), BigUint{1} % m);          // exp = 0
  EXPECT_EQ(table.pow(BigUint{1}), base % m);               // exp = 1
  const BigUint full = bigint::random_exact_bits(rng, 64);  // exp at max width
  EXPECT_EQ(table.pow(full), ctx->pow(base, full));
  EXPECT_THROW(table.pow(BigUint::pow2(64)), std::out_of_range);
}

TEST(FixedBaseTable, RejectsBadConstruction) {
  bigint::Xoshiro256ss rng(9);
  const BigUint m = odd_modulus(rng, 100);
  const auto ctx = std::make_shared<const bigint::Montgomery>(m);
  EXPECT_THROW(bigint::FixedBaseTable(ctx, BigUint{2}, 0), std::invalid_argument);
  EXPECT_THROW(bigint::FixedBaseTable(nullptr, BigUint{2}, 8), std::invalid_argument);
}

// --- batch Paillier APIs -----------------------------------------------------

const he::Keypair& test_keypair() {
  static const he::Keypair kp = [] {
    bigint::Xoshiro256ss rng(1234);
    return he::Keypair::generate(rng, 256);
  }();
  return kp;
}

std::vector<std::uint64_t> test_values() {
  std::vector<std::uint64_t> v(23);
  std::iota(v.begin(), v.end(), 100);
  return v;
}

TEST(BatchPaillier, EncryptBatchIsThreadCountInvariant) {
  const he::Keypair& kp = test_keypair();
  std::vector<BigUint> ms;
  for (const auto v : test_values()) ms.emplace_back(v);

  const auto serial = kp.pub.encrypt_batch(ms, 77, {.threads = 1});
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}, std::size_t{0}}) {
    const auto parallel = kp.pub.encrypt_batch(ms, 77, {.threads = threads});
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
  // A different batch seed must change the randomization.
  EXPECT_NE(serial, kp.pub.encrypt_batch(ms, 78, {.threads = 1}));
  // And every ciphertext decrypts to its message.
  const auto decrypted = kp.prv.decrypt_batch(serial, {.threads = 4});
  ASSERT_EQ(decrypted.size(), ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) EXPECT_EQ(decrypted[i], ms[i]);
}

TEST(BatchPaillier, RerandomizeBatchKeepsPlaintextsAndIsInvariant) {
  const he::Keypair& kp = test_keypair();
  std::vector<BigUint> ms;
  for (const auto v : test_values()) ms.emplace_back(v);
  const auto cts = kp.pub.encrypt_batch(ms, 5, {});

  const auto serial = kp.pub.rerandomize_batch(cts, 31, {.threads = 1});
  const auto parallel = kp.pub.rerandomize_batch(cts, 31, {.threads = 7});
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_NE(serial[i], cts[i]);  // unlinked from the original
    EXPECT_EQ(kp.prv.decrypt(serial[i]), ms[i]);
  }
}

TEST(BatchPaillier, EncryptedVectorBytesAreThreadCountInvariant) {
  const he::Keypair& kp = test_keypair();
  const auto values = test_values();

  bigint::Xoshiro256ss rng1(55), rng2(55), rng7(55);
  const auto v1 = he::EncryptedVector::encrypt(kp.pub, values, rng1, {.threads = 1});
  const auto v2 = he::EncryptedVector::encrypt(kp.pub, values, rng2, {.threads = 2});
  const auto v7 = he::EncryptedVector::encrypt(kp.pub, values, rng7, {.threads = 7});
  EXPECT_EQ(v1.serialize_bytes(), v2.serialize_bytes());
  EXPECT_EQ(v1.serialize_bytes(), v7.serialize_bytes());
  EXPECT_EQ(v1.decrypt(kp.prv, {.threads = 3}), values);
}

TEST(BatchPaillier, PackedEncryptIsThreadCountInvariant) {
  const he::Keypair& kp = test_keypair();
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 16);
  const auto values = test_values();

  bigint::Xoshiro256ss rng1(56), rng7(56);
  auto a = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng1,
                                              {.threads = 1});
  auto b = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng7,
                                              {.threads = 7});
  EXPECT_EQ(a.decrypt(kp.prv), b.decrypt(kp.prv));
  EXPECT_EQ(a.decrypt(kp.prv, {.threads = 5}), values);
}

TEST(BatchPaillier, DirectEncryptionRoundTrips) {
  // The full-entropy escape hatch: randomization drawn straight from rng.
  const he::Keypair& kp = test_keypair();
  const auto values = test_values();
  bigint::Xoshiro256ss rng(77);
  const auto v = he::EncryptedVector::encrypt_direct(kp.pub, values, rng);
  EXPECT_EQ(v.decrypt(kp.prv), values);

  const he::PackedCodec codec(kp.pub.key_bits() - 1, 16);
  bigint::Xoshiro256ss rng2(78);
  const auto p = he::PackedEncryptedVector::encrypt_direct(kp.pub, codec, values, rng2);
  EXPECT_EQ(p.decrypt(kp.prv), values);
}

TEST(BatchPaillier, FixedBaseEncryptionRoundTripsAndStaysInvariant) {
  he::Keypair kp = test_keypair();  // copy: enable the table on this copy only
  bigint::Xoshiro256ss table_rng(321);
  kp.pub.precompute_noise(table_rng);
  ASSERT_TRUE(kp.pub.has_noise_table());

  std::vector<BigUint> ms;
  for (const auto v : test_values()) ms.emplace_back(v);
  const auto serial = kp.pub.encrypt_batch(ms, 91, {.threads = 1});
  const auto parallel = kp.pub.encrypt_batch(ms, 91, {.threads = 7});
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(kp.prv.decrypt(serial[i]), ms[i]);
  }

  // Single-ciphertext path through the table.
  bigint::Xoshiro256ss rng(17);
  const he::Ciphertext ct = kp.pub.encrypt(BigUint{424242}, rng);
  EXPECT_EQ(kp.prv.decrypt(ct), BigUint{424242});
  const he::Ciphertext re = kp.pub.rerandomize(ct, rng);
  EXPECT_NE(re, ct);
  EXPECT_EQ(kp.prv.decrypt(re), BigUint{424242});
}

TEST(BatchPaillier, KeyHolderCrtBatchesMatchSerialPublicPath) {
  // The key holder's public key shares one FactorContext across every shard;
  // its batch output at any thread count must equal the public-only key's
  // serial bytes (this suite's TSan leg checks the concurrent reads).
  const he::Keypair& kp = test_keypair();
  ASSERT_TRUE(kp.pub.has_factor_context());
  const he::PublicKey pub(kp.pub.n());
  std::vector<BigUint> ms;
  for (const auto v : test_values()) ms.emplace_back(v);
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 16);
  const auto values = test_values();

  const auto reference = pub.encrypt_batch(ms, 77, {.threads = 1});
  bigint::Xoshiro256ss ref_rng(57);
  const auto packed_reference = he::serialize(
      he::PackedEncryptedVector::encrypt(pub, codec, values, ref_rng, {.threads = 1}));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    EXPECT_EQ(kp.pub.encrypt_batch(ms, 77, {.threads = threads}), reference)
        << "threads=" << threads;
    bigint::Xoshiro256ss rng(57);
    EXPECT_EQ(he::serialize(he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng,
                                                               {.threads = threads})),
              packed_reference)
        << "threads=" << threads;
  }
}

// --- secure session over the shared runtime ----------------------------------

TEST(SecureSessionRuntime, EncryptThreadsOneTwoSevenAgree) {
  data::PartitionConfig pcfg;
  pcfg.num_classes = 10;
  pcfg.num_clients = 15;
  pcfg.samples_per_client = 64;
  pcfg.rho = 5;
  pcfg.emd_avg = 1.2;
  pcfg.seed = 3;
  const auto dists = data::make_partition(pcfg).client_dists;
  const core::RegistryCodec codec(10, {1, 2, 10});

  std::vector<std::uint64_t> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    core::SecureConfig cfg;
    cfg.key_bits = 256;
    cfg.use_fixed_base = true;  // table + threads together
    cfg.encrypt_threads = threads;
    bigint::Xoshiro256ss rng(2024);
    core::SecureSelectionSession session(codec, {0.7, 0.1, 0.0}, cfg, dists.size(), rng);
    const auto outcome = session.run_registration(dists);
    if (reference.empty()) {
      reference = outcome.overall_registry;
    } else {
      EXPECT_EQ(outcome.overall_registry, reference) << "threads=" << threads;
    }
  }
}

TEST(SecureSessionRuntime, DefaultFixedBaseOffStillAgreesWithPlaintext) {
  data::PartitionConfig pcfg;
  pcfg.num_classes = 10;
  pcfg.num_clients = 8;
  pcfg.samples_per_client = 64;
  pcfg.rho = 5;
  pcfg.emd_avg = 1.2;
  pcfg.seed = 4;
  const auto dists = data::make_partition(pcfg).client_dists;
  const core::RegistryCodec codec(10, {1, 2, 10});

  core::SecureConfig cfg;  // use_fixed_base stays at its default (off)
  cfg.key_bits = 256;
  bigint::Xoshiro256ss rng(2025);
  core::SecureSelectionSession session(codec, {0.7, 0.1, 0.0}, cfg, dists.size(), rng);
  const auto outcome = session.run_registration(dists);
  std::uint64_t total = 0;
  for (const auto v : outcome.overall_registry) total += v;
  EXPECT_EQ(total, dists.size());
}

}  // namespace
}  // namespace dubhe

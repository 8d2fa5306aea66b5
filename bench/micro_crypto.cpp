// Micro-benchmarks (google-benchmark) for the cryptographic substrate:
// bigint primitives, Montgomery exponentiation, Paillier operations, and
// the packed-versus-per-slot registry encryption ablation. These quantify
// the constants behind §6.4's wall-clock numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string_view>
#include <vector>

#include "bigint/montgomery.hpp"
#include "bigint/prime.hpp"
#include "core/cpu.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "paillier/encrypted_vector.hpp"
#include "paillier/packing.hpp"

using namespace dubhe;
using bigint::BigUint;

namespace {

BigUint odd_random(bigint::EntropySource& rng, std::size_t bits) {
  BigUint m = bigint::random_exact_bits(rng, bits);
  if (!m.is_odd()) m += BigUint{1};
  return m;
}

void BM_BigUintMul(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits);
  const BigUint a = bigint::random_exact_bits(rng, bits);
  const BigUint b = bigint::random_exact_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigUintMul)->Arg(512)->Arg(2048)->Arg(8192);

void BM_BigUintDivmod(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits + 1);
  const BigUint a = bigint::random_exact_bits(rng, 2 * bits);
  const BigUint b = bigint::random_exact_bits(rng, bits);
  BigUint q, r;
  for (auto _ : state) {
    BigUint::divmod(a, b, q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigUintDivmod)->Arg(512)->Arg(2048)->Arg(4096);

void BM_MontgomeryPow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits + 2);
  const BigUint m = odd_random(rng, bits);
  const bigint::Montgomery ctx(m);
  const BigUint base = bigint::random_below(rng, m);
  const BigUint exp = bigint::random_exact_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.pow(base, exp));
  }
}
BENCHMARK(BM_MontgomeryPow)->Arg(1024)->Arg(2048)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_GenericPowModEvenModulus(benchmark::State& state) {
  // The non-Montgomery fallback, for contrast with BM_MontgomeryPow.
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(bits + 3);
  BigUint m = bigint::random_exact_bits(rng, bits);
  if (m.is_odd()) m += BigUint{1};
  const BigUint base = bigint::random_below(rng, m);
  const BigUint exp = bigint::random_exact_bits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.pow_mod(exp, m));
  }
}
BENCHMARK(BM_GenericPowModEvenModulus)->Arg(1024)->Unit(benchmark::kMillisecond);

const he::Keypair& keypair(std::size_t bits) {
  static std::map<std::size_t, he::Keypair>* cache = new std::map<std::size_t, he::Keypair>();
  auto it = cache->find(bits);
  if (it == cache->end()) {
    bigint::Xoshiro256ss rng(bits * 31);
    it = cache->emplace(bits, he::Keypair::generate(rng, bits)).first;
  }
  return it->second;
}

void BM_PaillierEncrypt(benchmark::State& state) {
  // kp.pub comes from the private key, so this is the key holder's CRT path.
  const auto bits = static_cast<std::size_t>(state.range(0));
  const he::Keypair& kp = keypair(bits);
  bigint::Xoshiro256ss rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.encrypt(BigUint{1}, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_PaillierDecryptCrt(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const he::Keypair& kp = keypair(bits);
  bigint::Xoshiro256ss rng(6);
  const he::Ciphertext ct = kp.pub.encrypt(BigUint{123456}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.prv.decrypt(ct));
  }
}
BENCHMARK(BM_PaillierDecryptCrt)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_PaillierDecryptTextbook(benchmark::State& state) {
  // CRT-vs-textbook decryption ablation.
  const auto bits = static_cast<std::size_t>(state.range(0));
  const he::Keypair& kp = keypair(bits);
  bigint::Xoshiro256ss rng(7);
  const he::Ciphertext ct = kp.pub.encrypt(BigUint{123456}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.prv.decrypt_textbook(ct));
  }
}
BENCHMARK(BM_PaillierDecryptTextbook)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_HomomorphicAdd(benchmark::State& state) {
  const he::Keypair& kp = keypair(2048);
  bigint::Xoshiro256ss rng(8);
  const he::Ciphertext a = kp.pub.encrypt(BigUint{1}, rng);
  const he::Ciphertext b = kp.pub.encrypt(BigUint{2}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.add(a, b));
  }
}
BENCHMARK(BM_HomomorphicAdd);

void BM_RegistryEncryptPerSlot(benchmark::State& state) {
  // One 56-slot registry, one ciphertext per slot (the paper's layout).
  const he::Keypair& kp = keypair(512);
  bigint::Xoshiro256ss rng(9);
  std::vector<std::uint64_t> registry(56, 0);
  registry[17] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(he::EncryptedVector::encrypt(kp.pub, registry, rng));
  }
  state.counters["bytes"] = static_cast<double>(56 * (4 + kp.pub.ciphertext_bytes()));
}
BENCHMARK(BM_RegistryEncryptPerSlot)->Unit(benchmark::kMillisecond);

void BM_RegistryEncryptPacked(benchmark::State& state) {
  // Same registry packed into a single ciphertext (BatchCrypt-style).
  const he::Keypair& kp = keypair(512);
  const he::PackedCodec codec(kp.pub.key_bits() - 1, 8);
  bigint::Xoshiro256ss rng(10);
  std::vector<std::uint64_t> registry(56, 0);
  registry[17] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        he::PackedEncryptedVector::encrypt(kp.pub, codec, registry, rng));
  }
  state.counters["bytes"] =
      static_cast<double>(codec.plaintexts_for(56) * (4 + kp.pub.ciphertext_bytes()));
}
BENCHMARK(BM_RegistryEncryptPacked)->Unit(benchmark::kMillisecond);

void BM_MillerRabin(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  bigint::Xoshiro256ss rng(11);
  const BigUint p = bigint::random_prime(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bigint::is_probable_prime(p, rng, 8));
  }
}
BENCHMARK(BM_MillerRabin)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// Times `fn` until ~0.5 s has elapsed and returns seconds per call.
template <typename F>
double time_op(F&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up
  int iters = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < 0.5);
  return elapsed / iters;
}

/// Headline per-operation throughput at the paper's deployment key size,
/// printed before the google-benchmark suite. This is the table CHANGES.md
/// records as the perf baseline across PRs.
void print_ops_table() {
  constexpr std::size_t kKeyBits = 2048;
  const he::Keypair& kp = keypair(kKeyBits);
  bigint::Xoshiro256ss rng(42);

  const BigUint m = odd_random(rng, kKeyBits);
  const bigint::Montgomery ctx(m);
  const BigUint base = bigint::random_below(rng, m);
  const BigUint exp = bigint::random_exact_bits(rng, kKeyBits);

  const he::Ciphertext ct_a = kp.pub.encrypt(BigUint{123456}, rng);
  const he::Ciphertext ct_b = kp.pub.encrypt(BigUint{654321}, rng);
  const BigUint scalar{0x1234567890abcdefULL};

  // The two noise paths: the public key alone (what a party without the
  // private key runs) and the key holder's CRT path (kp.pub carries the
  // factorization).
  const he::PublicKey pub_only(kp.pub.n());

  struct Row {
    const char* op;
    double sec;
  };
  const Row rows[] = {
      {"pow (2048-bit mod, 2048-bit exp)",
       time_op([&] { benchmark::DoNotOptimize(ctx.pow(base, exp)); })},
      {"encrypt (public key only)",
       time_op([&] { benchmark::DoNotOptimize(pub_only.encrypt(BigUint{1}, rng)); })},
      {"encrypt (key holder, CRT)",
       time_op([&] { benchmark::DoNotOptimize(kp.pub.encrypt(BigUint{1}, rng)); })},
      {"paillier decrypt (CRT)",
       time_op([&] { benchmark::DoNotOptimize(kp.prv.decrypt(ct_a)); })},
      {"homomorphic add",
       time_op([&] { benchmark::DoNotOptimize(kp.pub.add(ct_a, ct_b)); })},
      {"mul_plain (64-bit scalar)",
       time_op([&] { benchmark::DoNotOptimize(kp.pub.mul_plain(ct_a, scalar)); })},
  };

  std::printf("cpu: %s\n", core::cpu::feature_string().c_str());
  std::printf("== crypto substrate ops/sec (key_bits = %zu) ==\n", kKeyBits);
  std::printf("%-36s %12s %12s\n", "operation", "ms/op", "ops/sec");
  for (const Row& row : rows) {
    std::printf("%-36s %12.3f %12.1f\n", row.op, row.sec * 1e3, 1.0 / row.sec);
  }
  std::printf("\n");
}

/// Batch-encryption throughput over the shared runtime: serial legacy loop
/// versus encrypt_batch at 1/2/4/8 threads. Slot ops/sec is the comparable
/// unit (slots per second of a 32-slot vector). Thread scaling tops out at
/// the machine's core count — the table records whatever this host offers.
void print_batch_table() {
  constexpr std::size_t kKeyBits = 2048;
  constexpr std::size_t kSlots = 32;
  const he::Keypair& kp = keypair(kKeyBits);
  bigint::Xoshiro256ss rng(43);
  const std::vector<std::uint64_t> values(kSlots, 123456);

  std::printf("== batch encrypt throughput (key_bits = %zu, %zu slots/vector) ==\n",
              kKeyBits, kSlots);
  std::printf("%-34s %8s %12s %12s\n", "mode", "threads", "ms/vector", "slots/sec");
  const auto report = [&](const char* mode, std::size_t threads, double sec) {
    std::printf("%-34s %8zu %12.2f %12.1f\n", mode, threads, sec * 1e3,
                static_cast<double>(kSlots) / sec);
  };

  report("serial loop (PR 1 path)", 1, time_op([&] {
           for (const std::uint64_t v : values) {
             benchmark::DoNotOptimize(kp.pub.encrypt(BigUint{v}, rng));
           }
         }));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    report("encrypt_batch", threads, time_op([&] {
             benchmark::DoNotOptimize(he::EncryptedVector::encrypt(
                 kp.pub, values, rng, {.threads = threads}));
           }));
  }
  std::printf("(runtime workers: %zu)\n\n",
              core::ParallelRuntime::instance().worker_count());
}

/// The telemetry contract on the crypto hot path: the per-op counters and
/// histograms in paillier.cpp must cost <2% on a 2048-bit encrypt whether
/// collection is off (the default, one relaxed load) or on (sharded atomic
/// adds). A single off/on A/B is dominated by host drift, so this runs
/// kPairs interleaved off/on trials (the order flips every pair) on the
/// public-key-only path and prints the median on/off overhead with its
/// p10/p90 across pairs.
void print_telemetry_overhead_table() {
  constexpr std::size_t kKeyBits = 2048;
  constexpr std::size_t kPairs = 21;
  constexpr int kEncryptsPerTrial = 6;
  const he::PublicKey pub(keypair(kKeyBits).pub.n());
  bigint::Xoshiro256ss rng(45);

  using Clock = std::chrono::steady_clock;
  const auto trial = [&](bool on) {
    telemetry::set_enabled(on);
    const auto t0 = Clock::now();
    for (int i = 0; i < kEncryptsPerTrial; ++i) {
      benchmark::DoNotOptimize(pub.encrypt(BigUint{1}, rng));
    }
    return std::chrono::duration<double>(Clock::now() - t0).count() / kEncryptsPerTrial;
  };

  const bool was_enabled = telemetry::enabled();
  (void)trial(false);  // warm-up
  std::vector<double> off(kPairs), on(kPairs), overhead(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    if (i % 2 == 0) {
      off[i] = trial(false);
      on[i] = trial(true);
    } else {
      on[i] = trial(true);
      off[i] = trial(false);
    }
    overhead[i] = on[i] / off[i] - 1.0;
  }
  telemetry::set_enabled(was_enabled);

  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
  };
  std::printf(
      "== telemetry overhead on paillier encrypt (key_bits = %zu, public key only, "
      "%zu interleaved off/on pairs) ==\n",
      kKeyBits, kPairs);
  std::printf("%-36s %12s %12s %12s\n", "mode", "p10", "median", "p90");
  std::printf("%-36s %12.3f %12.3f %12.3f\n", "encrypt ms/op, telemetry off",
              quantile(off, 0.1) * 1e3, quantile(off, 0.5) * 1e3, quantile(off, 0.9) * 1e3);
  std::printf("%-36s %12.3f %12.3f %12.3f\n", "encrypt ms/op, telemetry on",
              quantile(on, 0.1) * 1e3, quantile(on, 0.5) * 1e3, quantile(on, 0.9) * 1e3);
  std::printf("%-36s %11.2f%% %11.2f%% %11.2f%%\n", "overhead (on vs off, per pair)",
              quantile(overhead, 0.1) * 100.0, quantile(overhead, 0.5) * 100.0,
              quantile(overhead, 0.9) * 100.0);
  std::printf("\n");
}

/// Packed-versus-per-slot vector operations at the deployment key size:
/// encrypt, decrypt, and homomorphic add of one 63-logical-value vector
/// (what a 2048-bit key with 32-bit slots fits in a single ciphertext),
/// with per-logical-slot throughput and serialized bytes. This is the
/// ablation behind the wire-v3 packed-first default: same decrypted
/// values, ~1/63rd the ciphertext operations and bytes.
void print_packed_table() {
  constexpr std::size_t kKeyBits = 2048;
  constexpr std::size_t kSlotBits = 32;  // SecureConfig::packing_slot_bits default
  const he::Keypair& kp = keypair(kKeyBits);
  const he::PackedCodec codec(kp.pub.key_bits() - 1, kSlotBits);
  const std::size_t kLogical = codec.slots_per_plaintext();  // 63 at 2048/32
  bigint::Xoshiro256ss rng(44);

  std::vector<std::uint64_t> values(kLogical);
  for (std::size_t i = 0; i < kLogical; ++i) values[i] = 1000 + i;

  const auto plain_a = he::EncryptedVector::encrypt(kp.pub, values, rng);
  const auto plain_b = he::EncryptedVector::encrypt(kp.pub, values, rng);
  const auto packed_a = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng);
  const auto packed_b = he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng);

  std::printf(
      "== packed vs per-slot vectors (key_bits = %zu, %zu logical values, "
      "%zu-bit slots) ==\n",
      kKeyBits, kLogical, kSlotBits);
  std::printf("%-28s %12s %14s %12s\n", "operation", "ms/vector", "logical/sec",
              "bytes");
  const auto report = [&](const char* op, double sec, std::size_t bytes) {
    std::printf("%-28s %12.3f %14.1f %12zu\n", op, sec * 1e3,
                static_cast<double>(kLogical) / sec, bytes);
  };

  const std::size_t plain_bytes = he::serialized_size(kp.pub, kLogical);
  const std::size_t packed_bytes = he::serialized_size(kp.pub, codec, kLogical);
  report("per-slot encrypt", time_op([&] {
           benchmark::DoNotOptimize(he::EncryptedVector::encrypt(kp.pub, values, rng));
         }),
         plain_bytes);
  report("packed encrypt", time_op([&] {
           benchmark::DoNotOptimize(
               he::PackedEncryptedVector::encrypt(kp.pub, codec, values, rng));
         }),
         packed_bytes);
  report("per-slot decrypt",
         time_op([&] { benchmark::DoNotOptimize(plain_a.decrypt(kp.prv)); }),
         plain_bytes);
  report("packed decrypt",
         time_op([&] { benchmark::DoNotOptimize(packed_a.decrypt(kp.prv)); }),
         packed_bytes);
  report("per-slot homomorphic add", time_op([&] {
           he::EncryptedVector sum = plain_a;
           sum += plain_b;
           benchmark::DoNotOptimize(sum);
         }),
         plain_bytes);
  report("packed homomorphic add", time_op([&] {
           he::PackedEncryptedVector sum = packed_a;
           sum += packed_b;
           benchmark::DoNotOptimize(sum);
         }),
         packed_bytes);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The headline table costs a 2048-bit keygen plus ~3 s of timing loops;
  // skip it when the caller is iterating on one filtered benchmark.
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_filter")) filtered = true;
  }
  if (!filtered) {
    print_ops_table();
    print_telemetry_overhead_table();
    print_batch_table();
    print_packed_table();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

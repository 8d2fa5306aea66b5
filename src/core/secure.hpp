#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/registration.hpp"
#include "core/registry.hpp"
#include "fl/channel.hpp"
#include "paillier/encrypted_vector.hpp"
#include "paillier/packing.hpp"
#include "stats/distribution.hpp"

namespace dubhe::core {

/// Cryptosystem parameters for the secure flows. The paper's deployment is
/// key_bits = 2048, one ciphertext per registry slot (python-paillier);
/// sessions always pack (BatchCrypt-style): a 2048-bit key with 32-bit
/// slots carries ~63 logical values per ciphertext, so registry and
/// distribution frames are ~50x smaller. The paper's per-slot layout is
/// still measured where it is reproduced — bench/overhead_sec64 and the
/// bench/micro_crypto ablation use he::EncryptedVector directly. Every
/// session encryption draws python-paillier's uniform noise r^n, computed
/// by CRT because every party holds the private key (see
/// he::PublicKey::rerandomize); no setting here changes the noise model.
struct SecureConfig {
  std::size_t key_bits = 2048;
  /// Slot width of the packed ciphertexts. 32 bits holds fixed-point distribution sums
  /// (scale 10^6 x cohorts into the thousands) and > 10^9 one-hot registry
  /// additions per slot, far beyond any realistic client population.
  std::size_t packing_slot_bits = 32;
  /// Fixed-point scale for encrypting real-valued label distributions.
  std::uint64_t fixed_point_scale = 1'000'000;
  /// Shard cap forwarded to the shared core::ParallelRuntime for the
  /// registration encryption (no private pool is created). Encryption
  /// happens on the clients, which are independent machines in deployment
  /// (paper §6.4: "the encryption is operated in parallel on clients");
  /// > 1 simulates that. <= 1 stays serial, exactly as before the shared
  /// runtime. Results are identical for any value: every client encrypts
  /// under its own seed-derived randomness (and each slot under a per-slot
  /// derived stream — see he::BatchOptions).
  std::size_t encrypt_threads = 1;
  /// Fraction of model-update coordinates shipped encrypted (top-k by
  /// global-weight magnitude, see core/selective.hpp). 0 keeps today's
  /// plaintext kModelUpdate path bit-for-bit; 1 encrypts every coordinate
  /// (the fully-encrypted bound); anything in between ships the top
  /// ceil(rate * n) coordinates as packed ciphertexts and the rest as
  /// quantized plaintext behind an index bitmap (kModelUpdateSparse).
  double update_he_rate = 0.0;
  /// Quantization width of each update coordinate when update_he_rate > 0
  /// (both the encrypted and the plaintext portion quantize identically,
  /// so the merged model is the same for every rate > 0). Range [2, 32].
  std::size_t update_quant_bits = 16;
  /// Fixed-point scale for update quantization: a weight delta d encodes
  /// as round(d * scale) clamped to the signed quant_bits range. 65536
  /// with 16 bits covers deltas in (-0.5, 0.5) at ~1.5e-5 resolution.
  double update_quant_scale = 65536.0;
};

/// The packing geometry of every session registry and distribution
/// ciphertext: key_bits - 1 plaintext bits split into packing_slot_bits
/// slots. Clients, shard slices and the root all derive it from here.
[[nodiscard]] he::PackedCodec packed_codec(const SecureConfig& cfg);

/// Fixed-point quantization of a label distribution (§5.3): round each
/// share to d[c] * scale. Shared by the in-process session and the net
/// client endpoints so both sides of a wire encrypt identical integers.
std::vector<std::uint64_t> quantize_distribution(const stats::Distribution& d,
                                                 std::uint64_t scale);

/// Seed of client k's proactive-participation stream for one global round:
/// the client draws its H Bernoulli bits for round r from
/// Rng(participation_seed(session_seed, r, k)), h-th draw for try h. Both
/// wire endpoints and the direct reference path derive it from exactly
/// (session seed, round, client id) — that shared derivation is what keeps
/// transcripts byte-identical across execution modes. The top bit
/// domain-separates the per-round master from every encryption-stream index
/// (registration_seed / distribution_seed), so a participation stream can
/// never collide with an encryption stream.
[[nodiscard]] std::uint64_t participation_seed(std::uint64_t session_seed,
                                               std::uint64_t round,
                                               std::uint64_t client_id);

/// The encryption-stream seed derivations as free functions, so a shard
/// aggregator (which never constructs a SecureSelectionSession — it holds no
/// keypair of its own) can validate client uploads against the same streams
/// the root and the clients use. The member functions below delegate here.
[[nodiscard]] std::uint64_t registration_stream_seed(std::uint64_t session_seed,
                                                     std::uint64_t client_id);
[[nodiscard]] std::uint64_t distribution_stream_seed(std::uint64_t session_seed,
                                                     std::uint64_t num_clients,
                                                     std::uint64_t try_slot,
                                                     std::uint64_t client_id);

/// Accumulated wall-clock spent inside cryptographic primitives.
struct CryptoTimings {
  double keygen_seconds = 0;
  double encrypt_seconds = 0;
  double decrypt_seconds = 0;
  std::size_t vectors_encrypted = 0;
  std::size_t vectors_decrypted = 0;
};

/// The secure counterpart of the plaintext selection pipeline: a full
/// Paillier session implementing the paper's §5.1 registration round-trip
/// and §5.3 encrypted population aggregation, with every transfer accounted
/// on the FL channel. The agent role (keygen, final decryption on behalf of
/// the cohort) is played inside this class; the "server" only ever touches
/// ciphertexts — tests assert that the plaintext never appears server-side.
class SecureSelectionSession {
 public:
  /// Generates the session keypair (timed into timings().keygen_seconds)
  /// and accounts its dispatch to `num_clients` clients.
  SecureSelectionSession(const RegistryCodec& codec, std::vector<double> sigma,
                         SecureConfig cfg, std::size_t num_clients,
                         bigint::EntropySource& rng,
                         fl::ChannelAccountant* channel = nullptr);

  struct RegistrationOutcome {
    std::vector<std::uint64_t> overall_registry;  // R_A, decrypted
    std::vector<Registration> registrations;      // per client (stays client-side)
  };

  /// §5.1 end-to-end: every client registers (Algorithm 1), encrypts its
  /// one-hot registry, the server adds ciphertexts, and the encrypted sum is
  /// broadcast and decrypted client-side. Returns R_A plus the per-client
  /// registrations for DubheSelector::load_overall_registry.
  RegistrationOutcome run_registration(std::span<const stats::Distribution> dists);

  /// §5.3 tentative-try aggregation: the selected clients encrypt their
  /// fixed-point label distributions, the server adds ciphertexts, the agent
  /// decrypts and normalizes p_o.
  stats::Distribution aggregate_population(std::span<const stats::Distribution> dists,
                                           std::span<const std::size_t> selected);

  [[nodiscard]] const CryptoTimings& timings() const { return timings_; }
  [[nodiscard]] const he::PublicKey& public_key() const { return keypair_.pub; }
  /// The whole session keypair — what the agent dispatches to the cohort
  /// (paper §5.1) and what the transport-backed driver puts in its
  /// kKeyMaterial frames.
  [[nodiscard]] const he::Keypair& keypair() const { return keypair_; }
  /// Exact wire size (full frame, header included) of one client's encrypted
  /// registry — what the channel accounting records per registry message.
  [[nodiscard]] std::size_t encrypted_registry_bytes() const;
  /// Exact wire size of one client's encrypted label distribution frame.
  [[nodiscard]] std::size_t encrypted_distribution_bytes() const;
  /// Ciphertext-material share of those frames (the ledger's
  /// encrypted_bytes column) — what net::encrypted_payload_bytes measures
  /// on the real frame, predicted without building it.
  [[nodiscard]] std::size_t registry_ciphertext_bytes() const;
  [[nodiscard]] std::size_t distribution_ciphertext_bytes() const;

  /// --- the split halves the transport-backed driver runs on --------------
  /// The in-process flows above are composed from these: per-client
  /// encryption seeds (client half, shipped in request frames) and
  /// aggregate-and-decrypt reductions (agent half). Results are independent
  /// of encryption randomness, so any seed assignment yields the same
  /// registry counts and populations — the seeds only make transcripts
  /// reproducible.

  /// Master seed the per-client encryption streams derive from.
  [[nodiscard]] std::uint64_t session_seed() const { return session_seed_; }
  /// Encryption-stream seed for client k's registration upload.
  [[nodiscard]] std::uint64_t registration_seed(std::size_t k) const;
  /// Encryption-stream seed for client k's distribution upload in global
  /// try slot `try_slot` (the multi-round session passes
  /// round * H + h, so every try of every round gets a disjoint stream —
  /// and all of them are disjoint from every registration seed).
  [[nodiscard]] std::uint64_t distribution_seed(std::size_t try_slot, std::size_t k) const;

  /// Agent half of §5.1: homomorphically sums the uploaded registries and
  /// decrypts R_A (timed into timings()). Throws std::invalid_argument on an
  /// empty span.
  std::vector<std::uint64_t> reduce_registry(
      std::span<const he::PackedEncryptedVector> cts);
  /// Agent half of §5.3: sums the uploaded fixed-point distributions,
  /// decrypts, and normalizes p_o.
  stats::Distribution reduce_population(std::span<const he::PackedEncryptedVector> cts);

 private:
  const RegistryCodec& codec_;
  std::vector<double> sigma_;
  SecureConfig cfg_;
  std::size_t num_clients_;
  bigint::EntropySource& rng_;
  fl::ChannelAccountant* channel_;
  he::Keypair keypair_;
  CryptoTimings timings_;
  /// Per-client encryption randomness derives from this, so serial and
  /// parallel registration produce identical ciphertexts.
  std::uint64_t session_seed_ = 0;
};

}  // namespace dubhe::core

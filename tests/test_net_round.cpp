// The net layer's acceptance contract: a full secure session — registration
// once, then R global rounds of proactive participation + multi-time
// selection + training over the same persistent connections — produces
// byte-identical transcripts whether it runs through direct in-process
// calls, a LoopbackTransport pair per client, or real TCP sockets on
// localhost. Participation is drawn client-side (no kRegistrationInfo on
// the wire), and the §6.4 byte accounting agrees per round between the
// transports and (for the encrypted payload categories) with the
// in-process session.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cpu.hpp"
#include "core/telemetry.hpp"
#include "core/registration.hpp"
#include "core/registry.hpp"
#include "bigint/random.hpp"
#include "core/secure.hpp"
#include "fl/client.hpp"
#include "net/codec.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/tcp.hpp"
#include "nn/builders.hpp"

namespace dubhe {
namespace {

data::FederatedDataset make_dataset(std::size_t num_clients) {
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = num_clients;
  pc.samples_per_client = 48;
  pc.rho = 8;
  pc.emd_avg = 1.4;
  pc.seed = 21;
  return {data::mnist_like(), pc};
}

net::SessionParams make_params(std::size_t K, std::size_t rounds = 1) {
  net::SessionParams p;
  p.secure.key_bits = 128;  // counts and weights are key-size independent
  p.K = K;
  p.H = 3;
  p.rounds = rounds;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  return p;
}

void expect_same_round(const net::RoundRecord& a, const net::RoundRecord& b) {
  EXPECT_EQ(a.try_emds, b.try_emds);  // exact double equality, no tolerance
  EXPECT_EQ(a.best_try, b.best_try);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.population, b.population);
  EXPECT_EQ(a.emd_star, b.emd_star);
  ASSERT_EQ(a.global_weights.size(), b.global_weights.size());
  EXPECT_EQ(std::memcmp(a.global_weights.data(), b.global_weights.data(),
                        a.global_weights.size() * sizeof(float)),
            0);
  EXPECT_EQ(a.accuracy, b.accuracy);
}

void expect_same_transcript(const net::SessionTranscript& a,
                            const net::SessionTranscript& b) {
  EXPECT_EQ(a.overall_registry, b.overall_registry);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    expect_same_round(a.rounds[r], b.rounds[r]);
  }
  EXPECT_EQ(net::format_transcript(a), net::format_transcript(b));
}

/// The encrypted payload categories must agree between the in-process
/// session and the frames that actually crossed a transport. (Distribution
/// downlink and control framing exist only where an agent/wire is
/// materialized — see src/net/README.md.)
void expect_encrypted_categories_equal(const fl::ChannelLedger& direct,
                                       const fl::ChannelLedger& wire) {
  using fl::Direction;
  using fl::MessageKind;
  for (const auto kind :
       {MessageKind::kKeyMaterial, MessageKind::kRegistry, MessageKind::kModelWeights}) {
    EXPECT_EQ(direct.at(kind, Direction::kServerToClient),
              wire.at(kind, Direction::kServerToClient))
        << to_string(kind);
    EXPECT_EQ(direct.at(kind, Direction::kClientToServer),
              wire.at(kind, Direction::kClientToServer))
        << to_string(kind);
  }
  EXPECT_EQ(direct.at(MessageKind::kDistribution, Direction::kClientToServer),
            wire.at(MessageKind::kDistribution, Direction::kClientToServer));
}

TEST(NetRound, LoopbackMatchesDirectBitForBit) {
  const auto dataset = make_dataset(8);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(3);

  fl::ChannelAccountant direct_channel;
  const auto direct = net::run_session_direct(dataset, proto, params, &direct_channel);
  fl::ChannelAccountant loop_channel;
  const auto loopback = net::run_loopback_session(dataset, proto, params, &loop_channel);

  expect_same_transcript(direct, loopback);
  ASSERT_EQ(direct.rounds.size(), 1u);
  ASSERT_EQ(direct.rounds[0].selected.size(), 3u);
  EXPECT_GT(direct.rounds[0].accuracy, 0.05);

  // Exact-byte agreement between the in-process session's ledger and the
  // frames that actually crossed the transports, category by category —
  // both on the aggregate accountants and on the per-phase ledgers the
  // transcript carries.
  expect_encrypted_categories_equal(direct_channel.snapshot(), loop_channel.snapshot());
  EXPECT_EQ(direct.setup_ledger.at(fl::MessageKind::kRegistry,
                                   fl::Direction::kClientToServer),
            loopback.setup_ledger.at(fl::MessageKind::kRegistry,
                                     fl::Direction::kClientToServer));
  expect_encrypted_categories_equal(direct.rounds[0].ledger, loopback.rounds[0].ledger);
  // The transports saw real control traffic; the direct path has none.
  EXPECT_GT(loop_channel.messages(fl::MessageKind::kControl), 0u);
  // The proactive check-in (kRoundBegin down, kParticipation up) is control
  // traffic: one frame per client per round in each direction at least.
  EXPECT_GE(loopback.rounds[0].ledger.messages(fl::MessageKind::kControl,
                                               fl::Direction::kClientToServer),
            dataset.num_clients());
}

TEST(NetRound, TranscriptByteIdenticalWithTelemetryOnAndOff) {
  // The out-of-band contract: flipping collection AND tracing on must not
  // move a single transcript byte — no instrumentation site may touch an
  // RNG stream, a payload, or a control decision. Quarantines included:
  // the fault plan exercises the counting path inside ServerCohort.
  const auto dataset = make_dataset(6);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, 2);
  params.evaluate = false;
  std::vector<net::FaultPlan> plans(6);
  plans[1] = net::parse_fault_plan("disconnect@participation:1");

  telemetry::set_enabled(false);
  telemetry::set_trace_enabled(false);
  const auto off = net::run_loopback_session(dataset, proto, params, plans);

  telemetry::reset_all();
  telemetry::set_enabled(true);
  telemetry::set_trace_enabled(true);
  const auto on = net::run_loopback_session(dataset, proto, params, plans);
  telemetry::set_enabled(false);
  telemetry::set_trace_enabled(false);

  EXPECT_EQ(net::format_transcript(off), net::format_transcript(on));
  expect_same_transcript(off, on);
  ASSERT_EQ(off.quarantined.size(), 1u);

  // And the instrumented run did record: the counting is real, just
  // invisible to the protocol.
  EXPECT_GT(telemetry::counter("dubhe_frames_total{dir=\"in\"}").value(), 0u);
  EXPECT_GT(
      telemetry::counter("dubhe_quarantine_total{reason=\"disconnect\"}").value(), 0u);
  // One engine observes each phase once: the flat aggregator is the tree
  // root over an in-process slice, and only a remote shard process adds
  // spans or partial counters of its own.
  const auto phase_count = [](const char* phase) {
    return telemetry::histogram("dubhe_phase_seconds{phase=\"" + std::string(phase) + "\"}")
        .count();
  };
  const std::uint64_t R = params.rounds;
  EXPECT_EQ(phase_count("hello"), 1u);
  EXPECT_EQ(phase_count("registration"), 1u);
  EXPECT_EQ(phase_count("participation"), R);
  EXPECT_EQ(phase_count("distribution"), R);
  EXPECT_EQ(phase_count("update"), R);
  EXPECT_EQ(phase_count("drain"), 1u);
  EXPECT_EQ(telemetry::histogram("dubhe_fedavg_seconds").count(), R);
  for (const char* msg : {"partial_registry", "setup_flush", "partial_participation",
                          "partial_population", "partial_update", "drain_flush"}) {
    EXPECT_EQ(telemetry::counter("dubhe_shard_partials_total{msg=\"" + std::string(msg) +
                                 "\"}")
                  .value(),
              0u)
        << msg;
  }
  EXPECT_FALSE(telemetry::trace_events().empty());
  telemetry::reset_all();
}

/// A scripted root for one serve_client over a loopback pair: it stamps
/// sequence numbers, and it can compute the exact upload a request should
/// produce, which is a fresh packed encryption of the client's quantized
/// distribution under the request's seed.
class ScriptedRoot {
 public:
  static constexpr std::size_t kClient = 1;

  ScriptedRoot() : dataset_(make_dataset(4)), proto_(nn::make_mlp(dataset_.feature_dim(), 16, 10, 7)) {
    params_ = make_params(2);
    bigint::Xoshiro256ss rng(77);
    keys_ = he::Keypair::generate(rng, params_.secure.key_bits);
    auto [root, client] = net::LoopbackTransport::make_pair();
    root_ = std::move(root);
    client_ = std::move(client);
    worker_ = std::thread([this] {
      try {
        net::serve_client(*client_, kClient, dataset_, proto_, params_);
      } catch (...) {
        error_ = std::current_exception();
        client_->close();
      }
    });
    const auto hello = root_->receive();
    EXPECT_TRUE(hello && hello->type == net::MsgType::kClientHello);
  }
  ScriptedRoot(const ScriptedRoot&) = delete;
  ScriptedRoot& operator=(const ScriptedRoot&) = delete;
  ~ScriptedRoot() {
    root_->close();
    if (worker_.joinable()) worker_.join();
  }

  void send(net::Frame f) {
    f.seq = seq_++;
    root_->send(f);
  }
  net::Frame recv(net::MsgType want) {
    auto f = root_->receive();
    EXPECT_TRUE(f.has_value());
    if (!f) return {};
    EXPECT_EQ(f->type, want);
    return *std::move(f);
  }

  /// Hello and key dispatch.
  void keys() {
    send(net::make_server_hello({kSessionSeed, 4, static_cast<std::uint32_t>(kClient)}));
    send(net::make_key_material({keys_.pub, keys_.prv}));
  }
  /// Registration, echoing the client's own one-hot registry back as R_A:
  /// its category is then the only one, with one member, so the Eq. 6
  /// probability is 1 and the client volunteers for every try.
  void register_alone() {
    send(net::make_seed_request(net::MsgType::kRegistrationRequest,
                                {core::registration_stream_seed(kSessionSeed, kClient), 0}));
    const net::Frame up = recv(net::MsgType::kRegistryUpload);
    send(net::Frame{net::MsgType::kRegistryBroadcast, up.payload});
  }
  std::vector<std::uint8_t> begin_round(std::uint64_t r) {
    send(net::make_round_begin({r}));
    return net::parse_participation(recv(net::MsgType::kParticipation)).draws;
  }
  std::uint64_t derived_seed(std::uint64_t r, std::uint32_t h) const {
    return core::distribution_stream_seed(kSessionSeed, 4, r * params_.H + h, kClient);
  }
  /// Requests try `tag` under `seed`; returns the upload's payload.
  std::vector<std::uint8_t> request(std::uint32_t tag, std::uint64_t seed) {
    send(net::make_seed_request(net::MsgType::kDistributionRequest, {seed, tag}));
    return recv(net::MsgType::kDistributionUpload).payload;
  }
  std::vector<std::uint8_t> fresh(std::uint64_t seed) const {
    const fl::Client c(kClient, {dataset_.client_samples(kClient).begin(),
                                 dataset_.client_samples(kClient).end()},
                       &dataset_);
    bigint::Xoshiro256ss rng(seed);
    return net::make_encrypted_vector(
               net::MsgType::kDistributionUpload,
               he::PackedEncryptedVector::encrypt(
                   keys_.prv.public_key(), core::packed_codec(params_.secure),
                   core::quantize_distribution(c.label_distribution(),
                                               params_.secure.fixed_point_scale),
                   rng))
        .payload;
  }
  /// Ends the session with a kShutdown, by closing the root's end, or by
  /// waiting for the client to fail on its own; returns what serve_client
  /// threw, if anything.
  enum class End { kShutdown, kHangUp, kWait };
  std::exception_ptr end(End how) {
    if (how == End::kShutdown) send(net::make_shutdown());
    if (how == End::kWait) {
      // The client must fail without answering: the next thing the root
      // sees is its hang-up, not a frame.
      try {
        const auto f = root_->receive(std::chrono::seconds(30));
        EXPECT_FALSE(f.has_value()) << "client answered with " << to_string(f->type);
      } catch (const net::TransportTimeout&) {
        ADD_FAILURE() << "client neither answered nor hung up";
      }
    }
    root_->close();
    worker_.join();
    return error_;
  }

  const net::SessionParams& params() const { return params_; }

 private:
  static constexpr std::uint64_t kSessionSeed = 0x5eed;
  data::FederatedDataset dataset_;
  nn::Sequential proto_;
  net::SessionParams params_;
  he::Keypair keys_;
  std::shared_ptr<net::Transport> root_, client_;
  std::uint16_t seq_ = 0;
  std::exception_ptr error_;
  std::thread worker_;
};

TEST(NetRound, ClientAnswersEveryDistributionRequestWithItsOwnSeed) {
  // Speculation may only ever change when an upload is computed, never its
  // bytes: each answer equals a fresh encryption under the request's seed,
  // whether the request hits a speculated try (derived seed), names a
  // volunteered try under another seed, or carries a tag outside [0, H).
  ScriptedRoot root;
  root.keys();
  root.register_alone();
  const std::uint32_t H = static_cast<std::uint32_t>(root.params().H);
  for (std::uint64_t r = 0; r < 2; ++r) {
    SCOPED_TRACE(r);
    const auto draws = root.begin_round(r);
    ASSERT_EQ(draws, std::vector<std::uint8_t>(H, 1));
    EXPECT_EQ(root.request(0, root.derived_seed(r, 0)), root.fresh(root.derived_seed(r, 0)));
    const std::uint64_t foreign = root.derived_seed(r, 1) ^ 0x9e3779b97f4a7c15ull;
    EXPECT_EQ(root.request(1, foreign), root.fresh(foreign));
    EXPECT_EQ(root.request(2, root.derived_seed(r, 2)), root.fresh(root.derived_seed(r, 2)));
    // A repeated request for a try whose speculation was already taken.
    EXPECT_EQ(root.request(2, root.derived_seed(r, 2)), root.fresh(root.derived_seed(r, 2)));
    EXPECT_EQ(root.request(H, root.derived_seed(r, 1)), root.fresh(root.derived_seed(r, 1)));
  }
  EXPECT_EQ(root.end(ScriptedRoot::End::kShutdown), nullptr);
}

TEST(NetRound, ClientRejectsDistributionRequestBeforeTheFirstRound) {
  ScriptedRoot root;
  root.keys();
  root.register_alone();
  root.send(net::make_seed_request(net::MsgType::kDistributionRequest,
                                   {root.derived_seed(0, 0), 0}));
  const std::exception_ptr err = root.end(ScriptedRoot::End::kWait);
  ASSERT_NE(err, nullptr);
  EXPECT_THROW(std::rethrow_exception(err), net::TransportError);
}

TEST(NetRound, ClientExitsCleanlyWithSpeculationInFlight) {
  // The root hangs up right after the participation, while the client's
  // worker is still encrypting tries 1 and 2: serve_client fails with a
  // typed error and joins the worker on its way out (TSan and ASan runs of
  // this suite check that nothing outlives it).
  ScriptedRoot root;
  root.keys();
  root.register_alone();
  (void)root.begin_round(0);
  const std::exception_ptr err = root.end(ScriptedRoot::End::kHangUp);
  ASSERT_NE(err, nullptr);
  EXPECT_THROW(std::rethrow_exception(err), net::TransportError);
}

TEST(NetRound, SpeculationCountersCoverEveryRequestServed) {
  const auto dataset = make_dataset(6);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, 3);
  params.evaluate = false;
  const std::string on_demand =
      "dubhe_client_distribution_encrypt_total{source=\"on_demand\"}";
  const std::string speculative =
      "dubhe_client_distribution_encrypt_total{source=\"speculative\"}";

  telemetry::reset_all();
  telemetry::set_enabled(true);
  const auto t = net::run_loopback_session(dataset, proto, params);
  telemetry::set_enabled(false);
  ASSERT_TRUE(t.quarantined.empty());
  // Fault-free, each of the R rounds asks K clients for each of H tries.
  EXPECT_EQ(telemetry::counter(on_demand).value() + telemetry::counter(speculative).value(),
            params.rounds * params.H * params.K);
  // Try 0 is always encrypted on demand; in this seeded session some later
  // try hits a speculated upload.
  EXPECT_GE(telemetry::counter(on_demand).value(), params.rounds * params.K);
  EXPECT_GT(telemetry::counter(speculative).value(), 0u);
  telemetry::reset_all();
}

/// A client speaking the per-slot 'V' form sessions no longer accept: it
/// completes the hello and key receipt honestly, uploads its registry as one
/// ciphertext per slot under the session key, then waits for the hang-up.
void plain_slot_client(net::Transport& link, std::size_t id,
                       const net::SessionParams& params) {
  std::uint16_t seq = 0;
  auto send = [&](net::Frame f) {
    f.seq = seq++;
    link.send(f);
  };
  send(net::make_client_hello({id, net::kWireVersion}));
  he::PublicKey pub;
  while (auto f = link.receive()) {
    if (f->type == net::MsgType::kKeyMaterial) pub = net::parse_key_material(*f).pub;
    if (f->type != net::MsgType::kRegistrationRequest) continue;
    const auto req = net::parse_seed_request(*f, net::MsgType::kRegistrationRequest);
    const core::RegistryCodec codec(params.num_classes, params.reference_set);
    std::vector<std::uint64_t> onehot(codec.length(), 0);
    onehot[0] = 1;
    bigint::Xoshiro256ss rng(req.seed);
    send(net::make_encrypted_vector(net::MsgType::kRegistryUpload,
                                    he::EncryptedVector::encrypt(pub, onehot, rng)));
  }
}

/// One session with client `rogue` replaced by plain_slot_client: flat
/// (num_shards == 0) or a loopback tree of `num_shards` shard aggregators.
net::SessionTranscript run_with_plain_slot_client(const data::FederatedDataset& dataset,
                                                  const nn::Sequential& proto,
                                                  const net::SessionParams& params,
                                                  std::size_t rogue, std::size_t num_shards) {
  const std::size_t N = dataset.num_clients();
  std::vector<std::shared_ptr<net::Transport>> agg_side(N);
  std::vector<std::shared_ptr<net::Transport>> client_side(N);
  for (std::size_t id = 0; id < N; ++id) {
    std::tie(agg_side[id], client_side[id]) = net::LoopbackTransport::make_pair();
  }
  std::vector<std::shared_ptr<net::Transport>> root_side(num_shards);
  std::vector<std::shared_ptr<net::Transport>> shard_up(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::tie(root_side[s], shard_up[s]) = net::LoopbackTransport::make_pair();
  }
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < N; ++id) {
    threads.emplace_back([&, id] {
      try {
        if (id == rogue) {
          plain_slot_client(*client_side[id], id, params);
        } else {
          net::serve_client(*client_side[id], id, dataset, proto, params);
        }
      } catch (...) {
        client_side[id]->close();
      }
    });
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    threads.emplace_back([&, s] {
      const net::ShardRange range = net::shard_range(N, num_shards, s);
      try {
        net::serve_shard(*shard_up[s],
                         std::span(agg_side).subspan(range.first, range.count),
                         static_cast<std::uint32_t>(s),
                         static_cast<std::uint32_t>(num_shards), N, params);
      } catch (...) {
        shard_up[s]->close();
      }
    });
  }
  net::SessionTranscript t;
  try {
    t = num_shards == 0 ? net::run_server_session(agg_side, dataset, proto, params)
                        : net::run_root_session(root_side, dataset, proto, params);
  } catch (...) {
    for (auto& link : root_side) link->close();
    for (auto& link : agg_side) link->close();
    for (auto& th : threads) th.join();
    throw;
  }
  for (auto& th : threads) th.join();
  return t;
}

TEST(NetRound, PerSlotRegistryUploadIsQuarantinedAsBadCiphertext) {
  // Sessions speak packed ciphertexts only. A registry upload in the
  // paper's per-slot 'V' form — valid ciphertexts under the session key —
  // is a ciphertext failure: the client is quarantined at registration and
  // the session completes over the others, with the same record whether
  // the aggregator is flat or a tree.
  const auto dataset = make_dataset(6);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2);
  params.evaluate = false;

  const auto flat = run_with_plain_slot_client(dataset, proto, params, 3, 0);
  const auto tree = run_with_plain_slot_client(dataset, proto, params, 3, 2);
  EXPECT_EQ(net::format_transcript(flat), net::format_transcript(tree));
  ASSERT_EQ(flat.quarantined.size(), 1u);
  const net::QuarantineRecord& q = flat.quarantined[0];
  EXPECT_EQ(q.client_id, 3u);
  EXPECT_EQ(q.round, net::QuarantineRecord::kSetupRound);
  EXPECT_EQ(q.phase, net::SessionPhase::kRegistration);
  EXPECT_EQ(q.reason, net::QuarantineReason::kBadCiphertext);
  ASSERT_EQ(flat.rounds.size(), 1u);
  for (const std::size_t k : flat.rounds[0].selected) EXPECT_NE(k, 3u);
}

TEST(NetRound, SelectiveUpdateSessionMatchesEverywhere) {
  // he_rate > 0 switches the model uplink to kModelUpdateSparse: top-k
  // coordinates as packed ciphertexts, the rest quantized plaintext behind
  // the shared bitmap. The transcript must stay byte-identical across
  // direct, loopback, and TCP — and the ledger's plaintext/encrypted byte
  // split must agree cell-by-cell between the two transports (Cell equality
  // includes the encrypted_bytes column).
  const std::size_t N = 4;
  const std::size_t R = 2;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  auto params = make_params(2, R);
  params.secure.update_he_rate = 0.5;

  fl::ChannelAccountant tcp_channel;
  const auto tcp = net::run_tcp_session(dataset, proto, params, 1, &tcp_channel);
  fl::ChannelAccountant loop_channel;
  const auto loopback = net::run_loopback_session(dataset, proto, params, &loop_channel);
  const auto direct = net::run_session_direct(dataset, proto, params);

  expect_same_transcript(tcp, loopback);
  expect_same_transcript(tcp, direct);
  ASSERT_EQ(tcp.rounds.size(), R);
  EXPECT_NE(tcp.rounds[0].global_weights, tcp.rounds[R - 1].global_weights);
  EXPECT_GT(tcp.rounds[R - 1].accuracy, 0.05);

  EXPECT_EQ(tcp_channel.snapshot(), loop_channel.snapshot());
  for (std::size_t r = 0; r < R; ++r) {
    EXPECT_EQ(tcp.rounds[r].ledger, loopback.rounds[r].ledger) << "round " << r;
  }

  // The uplink now carries ciphertext material; the model downlink stays
  // plaintext. The direct path's predictive accounting must equal what
  // net::encrypted_payload_bytes measured on the real frames.
  const auto& led = tcp.rounds[0].ledger;
  EXPECT_GT(led.encrypted_bytes(fl::MessageKind::kModelWeights,
                                fl::Direction::kClientToServer),
            0u);
  EXPECT_EQ(led.encrypted_bytes(fl::MessageKind::kModelWeights,
                                fl::Direction::kServerToClient),
            0u);
  for (std::size_t r = 0; r < R; ++r) {
    expect_encrypted_categories_equal(direct.rounds[r].ledger, tcp.rounds[r].ledger);
  }
}

TEST(NetRound, EncryptedUpdateBytesGrowWithHeRate) {
  // The he_rate sweep contract: encrypted uplink bytes are zero at rate 0
  // (bit-for-bit the plaintext path) and grow monotonically with the rate,
  // while the merged model is identical for every rate > 0 — encrypted and
  // plaintext coordinates quantize the same way, so the rate buys privacy,
  // not a different model.
  const auto dataset = make_dataset(4);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  std::uint64_t prev_encrypted = 0;
  std::vector<float> quantized_merge;
  for (const double rate : {0.0, 0.1, 0.5, 1.0}) {
    auto params = make_params(2);
    params.secure.update_he_rate = rate;
    params.evaluate = false;
    fl::ChannelAccountant channel;
    const auto t = net::run_session_direct(dataset, proto, params, &channel);
    const std::uint64_t enc = channel.encrypted_bytes(
        fl::MessageKind::kModelWeights, fl::Direction::kClientToServer);
    if (rate == 0.0) {
      EXPECT_EQ(enc, 0u);
    } else {
      EXPECT_GT(enc, prev_encrypted) << "he_rate " << rate;
      if (quantized_merge.empty()) {
        quantized_merge = t.rounds[0].global_weights;
      } else {
        EXPECT_EQ(t.rounds[0].global_weights, quantized_merge) << "he_rate " << rate;
      }
    }
    prev_encrypted = enc;
  }
}

TEST(NetRound, ThreeRoundPersistentSessionMatchesEverywhere) {
  // The multi-round tentpole: 1 in-test server + 4 client threads complete
  // a 3-round session over ONE persistent TCP connection per client —
  // registration and key dispatch happen once, every round re-draws
  // participation client-side — and the transcript is byte-identical to
  // loopback and to the direct in-process path, with per-round ledgers
  // equal cell-by-cell across the two transports.
  const std::size_t N = 4;
  const std::size_t R = 3;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2, R);

  fl::ChannelAccountant tcp_channel;
  const auto tcp = net::run_tcp_session(dataset, proto, params, 1, &tcp_channel);

  // The same session again at 4 event-loop workers (connections sharded
  // across loops), and once more with epoll masked out of the enabled CPU
  // feature set so every worker runs the portable poll(2) backend. The
  // transcript must be byte-identical in all cases: readiness backend and
  // shard count are pure transport concerns.
  const auto tcp_sharded = net::run_tcp_session(dataset, proto, params, 4);
  expect_same_transcript(tcp_sharded, tcp);
  const std::uint32_t prev_mask =
      core::cpu::set_enabled(core::cpu::enabled() & ~core::cpu::kEpoll);
  const auto tcp_poll = net::run_tcp_session(dataset, proto, params, 4);
  core::cpu::set_enabled(prev_mask);
  expect_same_transcript(tcp_poll, tcp);

  fl::ChannelAccountant loop_channel;
  const auto loopback = net::run_loopback_session(dataset, proto, params, &loop_channel);
  const auto direct = net::run_session_direct(dataset, proto, params);

  ASSERT_EQ(tcp.rounds.size(), R);
  expect_same_transcript(tcp, loopback);
  expect_same_transcript(tcp, direct);

  // Rounds genuinely progress: FedAvg moved the global model each round.
  EXPECT_NE(tcp.rounds[0].global_weights, tcp.rounds[R - 1].global_weights);

  // The two transports must agree on every ledger cell exactly — same
  // frames, same bytes, regardless of the medium — in aggregate and round
  // by round (setup phase included).
  EXPECT_EQ(tcp_channel.snapshot(), loop_channel.snapshot());
  EXPECT_EQ(tcp.setup_ledger, loopback.setup_ledger);
  for (std::size_t r = 0; r < R; ++r) {
    EXPECT_EQ(tcp.rounds[r].ledger, loopback.rounds[r].ledger) << "round " << r;
    // Per-round encrypted categories also match the no-frames reference.
    expect_encrypted_categories_equal(direct.rounds[r].ledger, tcp.rounds[r].ledger);
  }

  // Per-round model traffic: one down + one up per participant per round.
  for (std::size_t r = 0; r < R; ++r) {
    EXPECT_EQ(tcp.rounds[r].ledger.messages(fl::MessageKind::kModelWeights,
                                            fl::Direction::kServerToClient),
              params.K);
    EXPECT_EQ(tcp.rounds[r].ledger.messages(fl::MessageKind::kModelWeights,
                                            fl::Direction::kClientToServer),
              params.K);
  }
}

TEST(TcpServerRobustness, BackendSelectionFollowsEnabledFeatures) {
  // Masking epoll out of the enabled set forces the portable backend on any
  // host; with the mask restored, an epoll host selects epoll again.
  const std::uint32_t prev =
      core::cpu::set_enabled(core::cpu::enabled() & ~core::cpu::kEpoll);
  {
    net::TcpServer server(0, 2);
    EXPECT_STREQ(server.backend_name(), "poll");
    EXPECT_EQ(server.worker_count(), 2u);
  }
  core::cpu::set_enabled(prev);
  if (core::cpu::has(core::cpu::kEpoll)) {
    net::TcpServer server(0);
    EXPECT_STREQ(server.backend_name(), "epoll");
  }
}

TEST(TcpServerRobustness, EmfileAcceptShedsInsteadOfHanging) {
  // Regression test for the EMFILE accept path: when the process is out of
  // file descriptors the listener must shed the incoming connection through
  // its reserved emergency fd — accept it, close it, move on — so the
  // client observes a prompt clean close instead of a connection parked
  // forever in the backlog while the listener spins.
  net::TcpServer server(0);

  rlimit old{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &old), 0);
  rlimit tight{};
  tight.rlim_cur = 256;  // far above current usage; the fill loop does the rest
  tight.rlim_max = old.rlim_max;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Exhaust every allocatable descriptor slot (holes included), then free
  // exactly one: the client socket takes it, leaving accept() to hit EMFILE.
  std::vector<int> fillers;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    fillers.push_back(fd);
  }
  ASSERT_FALSE(fillers.empty());
  ::close(fillers.back());
  fillers.pop_back();

  // The kernel completes the TCP handshake from the listen backlog, so
  // connect() succeeds even though the server cannot accept. The starved
  // client is raw POSIX on purpose: with zero free descriptors the
  // sanitizer runtimes cannot open /proc/self/maps, so UBSan's vptr check
  // on any virtual Transport call here would misfire — and poll(2) gives
  // the did-it-hang guard without spawning a watchdog thread.
  const int starved = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(starved, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(starved, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  pollfd pfd{};
  pfd.fd = starved;
  pfd.events = POLLIN;  // EOF surfaces as readable-with-zero-bytes
  ASSERT_EQ(::poll(&pfd, 1, 10000), 1)
      << "listener hung instead of shedding the connection under EMFILE";
  char byte = 0;
  EXPECT_EQ(::read(starved, &byte, 1), 0);  // shed = accepted then closed, no data
  ::close(starved);

  for (const int fd : fillers) ::close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &old), 0);

  // Capacity restored: the same listener serves real traffic again.
  auto client = net::TcpTransport::connect("127.0.0.1", server.port());
  auto link = server.accept();
  ASSERT_NE(link, nullptr);
  const net::Frame ping{net::MsgType::kShutdown, {1, 2, 3}};
  client->send(ping);
  EXPECT_EQ(link->receive(), ping);
  client->close();
  server.stop();
}

}  // namespace
}  // namespace dubhe

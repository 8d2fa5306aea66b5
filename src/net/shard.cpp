#include "net/shard.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/multitime.hpp"
#include "core/selection.hpp"
#include "core/selective.hpp"
#include "core/telemetry.hpp"
#include "fl/server.hpp"
#include "net/codec.hpp"
#include "net/cohort.hpp"
#include "net/tcp.hpp"
#include "stats/rng.hpp"

namespace dubhe::net {

namespace detail {

namespace {

/// The partial-sum ciphertext fields of the shard-plane payloads hold the
/// self-tagged 'K' encrypted-vector wire form — exactly the payload of a
/// make_encrypted_vector frame, so the existing codec does the byte work.
std::vector<std::uint8_t> vector_bytes(const he::PackedEncryptedVector& v) {
  return std::move(make_encrypted_vector(MsgType::kRegistryUpload, v).payload);
}

/// Folds `v` into a homomorphic running sum that starts out empty.
void accumulate(std::optional<he::PackedEncryptedVector>& sum, he::PackedEncryptedVector&& v) {
  if (sum) {
    *sum += v;
  } else {
    sum = std::move(v);
  }
}

/// Root side of a partial sum: validated exactly like a client upload —
/// wrong session key, shape, or packing geometry is rejected before it can
/// corrupt the global sum (fatal here: a slice is infrastructure).
void merge_partial(std::optional<he::PackedEncryptedVector>& sum,
                   std::vector<std::uint8_t> bytes, const he::PublicKey& key,
                   std::size_t want_logical, const he::PackedCodec& codec, const char* what) {
  try {
    const Frame f{MsgType::kRegistryUpload, std::move(bytes)};
    auto v = parse_packed_encrypted_vector(f, MsgType::kRegistryUpload);
    check_encrypted(v, key, want_logical, codec);
    accumulate(sum, std::move(v));
  } catch (const WireError& e) {
    throw TransportError(std::string("session: invalid ") + what + ": " + e.what());
  }
}

/// Counts every partial result a shard process ships upward, labelled by
/// message.
void count_partial(const char* label) {
  if (!telemetry::enabled()) return;
  telemetry::counter(std::string("dubhe_shard_partials_total{msg=\"") + label + "\"}")
      .inc();
}

/// The root's view of one slice, with two backings: a remote shard's
/// uplink (`t`, stamped sequence numbers, scaled deadlines), or the flat
/// aggregator's in-process slice (`local`), which starts serving each
/// request on send() and hands back its reply on recv() — so a try's
/// uploads are collected only when the root asks for its partial, exactly
/// as with a remote shard. Either way every failure — timeout, sequence
/// violation, unexpected type, malformed partial — is a fatal
/// TransportError, never a quarantine: a slice is infrastructure.
struct ShardLink {
  std::shared_ptr<Transport> t;
  ShardSlice* local = nullptr;
  ShardRange range;
  std::uint16_t send_seq = 0;
  std::uint16_t recv_seq = 1;  // the shard hello (seq 0) was already consumed

  [[nodiscard]] bool owns(std::uint64_t client) const {
    return client >= range.first && client < range.first + range.count;
  }

  void send(Frame f) {
    if (local != nullptr) {
      local->issue(f);
      return;
    }
    f.seq = send_seq++;
    t->send(f);
  }

  /// A remote shard's reply always follows its own client sweep under the
  /// shard's per-client deadlines, so the root's deadline per phase is the
  /// phase deadline scaled by the shard's cohort size (+1 slack) — generous
  /// enough to never race an honest shard, bounded enough that a zombie
  /// shard cannot wedge the tree.
  Frame recv(MsgType want, std::chrono::milliseconds phase_deadline) {
    std::optional<Frame> f;
    if (local != nullptr) {
      f = local->collect();
      if (!f) throw TransportError("session: the local slice owes no reply");
    } else {
      const auto scale = static_cast<std::int64_t>(range.count) + 1;
      const auto deadline =
          phase_deadline.count() == 0 ? phase_deadline : phase_deadline * scale;
      try {
        f = t->receive(deadline);
      } catch (const TransportTimeout&) {
        throw TransportError("run_root_session: shard did not answer in time");
      }
      if (!f) throw TransportError("run_root_session: shard link closed mid-session");
      if (f->seq != recv_seq) {
        throw TransportError("run_root_session: shard frame out of sequence");
      }
      ++recv_seq;
    }
    if (f->type != want) {
      throw TransportError("session: shard sent unexpected " + to_string(f->type));
    }
    return *std::move(f);
  }
};

/// Remote shard hello: binds links to shard ids. Unlike the client hello
/// this is all-or-nothing — the announced ranges must exactly partition the
/// cohort, so a single bad hello is a deployment error, not churn.
std::vector<ShardLink> bind_shards(std::span<const std::shared_ptr<Transport>> links,
                                   std::size_t N, std::chrono::milliseconds deadline) {
  const std::size_t A = links.size();
  std::vector<ShardLink> shards(A);
  for (const auto& link : links) {
    auto frame = link->receive(deadline);
    if (!frame) throw TransportError("run_root_session: shard closed before hello");
    if (frame->seq != 0) {
      throw TransportError("run_root_session: shard hello out of sequence");
    }
    const ShardHello hello = parse_shard_hello(*frame);
    if (hello.protocol != kWireVersion) {
      throw TransportError("run_root_session: shard speaks wire v" +
                           std::to_string(hello.protocol) + ", want v" +
                           std::to_string(kWireVersion));
    }
    if (hello.num_shards != A || hello.total_clients != N) {
      throw TransportError("run_root_session: shard topology mismatch");
    }
    const ShardRange want = shard_range(N, A, hello.shard_id);
    if (hello.first_client != want.first || hello.num_clients != want.count) {
      throw TransportError("run_root_session: shard announced a foreign client range");
    }
    if (shards[hello.shard_id].t != nullptr) {
      throw TransportError("run_root_session: duplicate shard id " +
                           std::to_string(hello.shard_id));
    }
    shards[hello.shard_id].t = link;
    shards[hello.shard_id].range = want;
  }
  return shards;
}

/// The aggregator phase machine: the root plays the agent role (keygen, the
/// only decryptions, the §5.3 determination, FedAvg) against A slices of
/// the cohort. A flat session is A = 1 with the slice in-process.
SessionTranscript aggregate_session(std::span<const std::shared_ptr<Transport>> links,
                                    Downlinks downlinks, const data::FederatedDataset& dataset,
                                    const nn::Sequential& prototype,
                                    const SessionParams& params, fl::ChannelAccountant& acct) {
  const std::size_t N = dataset.num_clients();
  const core::RegistryCodec codec(params.num_classes, params.reference_set);
  const he::PackedCodec session_packed = core::packed_codec(params.secure);
  const SessionTimeouts& to = params.timeouts;

  bigint::Xoshiro256ss he_rng(params.he_seed);
  core::SecureSelectionSession session(codec, params.sigma, params.secure, N, he_rng,
                                       nullptr);

  SessionTranscript t;

  if (telemetry::enabled()) {
    // Pre-register every quarantine series so a scrape always exposes the
    // family (zero-valued until an event) — dashboards and the smoke test's
    // mid-session grep must not depend on a fault having fired yet.
    for (const auto reason :
         {QuarantineReason::kTimeout, QuarantineReason::kDisconnect,
          QuarantineReason::kBadFrame, QuarantineReason::kBadCiphertext,
          QuarantineReason::kBadParticipation, QuarantineReason::kReplay}) {
      telemetry::counter("dubhe_quarantine_total{reason=\"" + to_string(reason) + "\"}");
    }
  }

  // Slice-reported quarantine records splice into the transcript verbatim —
  // the codec already validated the enum ranges, and the canonical sort at
  // the end makes arrival order irrelevant.
  auto merge_quarantines = [&](std::span<const QuarantineRecord> records) {
    t.quarantined.insert(t.quarantined.end(), records.begin(), records.end());
  };

  // --- hello. The flat session's one slice lives in-process and needs no
  // binding; remote shards announce their ranges first. Either way a slice
  // binds its own clients when the kServerHello reaches it.
  std::optional<ShardSlice> local;
  std::vector<ShardLink> shards;
  {
  telemetry::Span hello_span("phase:hello", &phase_hist(SessionPhase::kHello));
  if (downlinks == Downlinks::kClients) {
    local.emplace(links, 0, 1, N, params);
    shards.resize(1);
    shards[0].local = &*local;
    shards[0].range = local->range();
  } else {
    shards = bind_shards(links, N, to.registration);
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].send(make_server_hello({session.session_seed(), static_cast<std::uint32_t>(N),
                                      static_cast<std::uint32_t>(s)}));
  }
  }
  const std::size_t A = shards.size();

  // --- §5.1: key dispatch down the tree, partial registry sums up. ---------
  {
  telemetry::Span reg_span("phase:registration",
                           &phase_hist(SessionPhase::kRegistration));
  const Frame key_frame =
      make_key_material({session.keypair().pub, session.keypair().prv});
  for (std::size_t s = 0; s < A; ++s) shards[s].send(key_frame);

  // Multiplying the slice partials in shard order re-parenthesizes the
  // client-order product — Paillier addition is commutative, so the
  // resulting ciphertext (and the broadcast frame) is bit-identical for
  // every A.
  std::optional<he::PackedEncryptedVector> sum;
  for (std::size_t s = 0; s < A; ++s) {
    PartialRegistry pr =
        parse_partial_registry(shards[s].recv(MsgType::kPartialRegistry, to.registration));
    if (pr.shard_id != s) {
      throw TransportError("session: partial registry from the wrong shard");
    }
    merge_quarantines(pr.quarantined);
    if (pr.contributors == 0) continue;
    merge_partial(sum, std::move(pr.ciphertext), session.public_key(), codec.length(),
                  session_packed, "partial registry");
  }
  if (!sum) {
    throw TransportError("session: every client was quarantined during setup");
  }
  // The agent (co-located here) decrypts the sum, and every surviving
  // client receives the encrypted sum broadcast (and decrypts it itself —
  // that is what its proactive draws feed on). The registry is the
  // survivors' registry: a quarantined client contributes nothing.
  const Frame bcast = make_encrypted_vector(MsgType::kRegistryBroadcast, *sum);
  for (std::size_t s = 0; s < A; ++s) shards[s].send(bcast);
  t.overall_registry = session.reduce_registry({&*sum, 1});
  // Post-broadcast flush: failures while a slice forwarded the broadcast
  // are setup-phase records and must land before round 0.
  for (std::size_t s = 0; s < A; ++s) {
    const PartialParticipation pp = parse_partial_participation(
        shards[s].recv(MsgType::kPartialParticipation, to.registration));
    if (pp.shard_id != s || pp.round != kSetup) {
      throw TransportError("session: bad setup flush report");
    }
    merge_quarantines(pp.quarantined);
  }
  }
  t.setup_ledger = acct.snapshot();

  const auto shard_of = [&](std::size_t client) {
    for (std::size_t s = 0; s < A; ++s) {
      if (shards[s].owns(client)) return s;
    }
    throw TransportError("session: client id outside every shard");
  };

  // --- the per-round loop over the same persistent connections. -----------
  fl::Server server(prototype);
  stats::Rng sel_rng(params.select_seed);
  t.rounds.reserve(params.rounds);
  for (std::size_t r = 0; r < params.rounds; ++r) {
    const fl::ChannelLedger before = acct.snapshot();
    const std::size_t qmark = t.quarantined.size();
    RoundRecord rec;

    // Round begin + the clients' own participation draws: every slice
    // reports its survivors' validated draws. The server never computes an
    // Eq. 6 probability — it only resolves the volunteered bits to exactly
    // K with its replenish stream (§5.2 server half). The alive set for
    // this round is exactly "clients that reported draws", shrunk by any
    // quarantine a later partial reports.
    std::vector<std::vector<std::uint8_t>> draws(N);
    std::vector<char> alive(N, 0);
    auto merge_and_kill = [&](std::span<const QuarantineRecord> records) {
      for (const QuarantineRecord& q : records) {
        if (q.client_id < N) alive[q.client_id] = 0;
      }
      merge_quarantines(records);
    };
    {
    telemetry::Span part_span("phase:participation",
                              &phase_hist(SessionPhase::kParticipation));
    for (std::size_t s = 0; s < A; ++s) {
      shards[s].send(make_shard_round_begin({static_cast<std::uint64_t>(r)}));
    }
    for (std::size_t s = 0; s < A; ++s) {
      PartialParticipation pp = parse_partial_participation(
          shards[s].recv(MsgType::kPartialParticipation, to.upload));
      if (pp.shard_id != s || pp.round != r) {
        throw TransportError("session: partial participation for wrong round");
      }
      merge_quarantines(pp.quarantined);
      for (Participation& e : pp.entries) {
        if (!shards[s].owns(e.client_id) || e.draws.size() != params.H) {
          throw TransportError("session: invalid participation entry");
        }
        draws[e.client_id] = std::move(e.draws);
        alive[e.client_id] = 1;
      }
    }
    }

    // --- §5.3: multi-time determination with per-try encrypted aggregation.
    // Each try fans out as kShardTryBegin (members in global selection
    // order) and the slice partials multiply back together in shard order.
    // The steps are pipelined (core::TryPipeline): once try h's partials
    // are in and checked, try h+1 is selected and its requests go out, and
    // only then does the agent decrypt and score try h — so its decryption
    // overlaps the clients' next encryptions. The sel_rng draws and every
    // link's frame order are those of the serial loop.
    // A selected client that fails its sweep costs the whole determination:
    // the sweep finishes first (every surviving response consumed, queues
    // balanced), the offender is already quarantined, and RestartRound —
    // raised at receipt, before any later send — re-runs the determination
    // over the survivors with K capped at the cohort that is left.
    {
    telemetry::Span dist_span("phase:distribution",
                              &phase_hist(SessionPhase::kDistribution));
    for (;;) {
      std::vector<std::size_t> ids;
      for (std::size_t id = 0; id < N; ++id) {
        if (alive[id]) ids.push_back(id);
      }
      if (ids.empty()) {
        throw TransportError("session: every client was quarantined by round " +
                             std::to_string(r));
      }
      const std::size_t Keff = std::min(params.K, ids.size());
      std::vector<std::size_t> polled;  // the shards asked for the try in flight
      std::vector<std::optional<he::PackedEncryptedVector>> psums(params.H);
      core::TryPipeline steps;
      steps.select = [&](std::size_t h) {
        // The survivors' volunteered bits, resolved to exactly Keff;
        // positions map back to real client ids.
        std::vector<std::uint8_t> bits(ids.size(), 0);
        for (std::size_t i = 0; i < ids.size(); ++i) bits[i] = draws[ids[i]][h];
        std::vector<std::size_t> sel = core::resolve_participation(bits, Keff, sel_rng);
        for (std::size_t& s : sel) s = ids[s];
        return sel;
      };
      steps.issue = [&](std::size_t h, std::span<const std::size_t> sel) {
        std::vector<std::vector<std::uint64_t>> members(A);
        for (const std::size_t k : sel) {
          members[shard_of(k)].push_back(static_cast<std::uint64_t>(k));
        }
        polled.clear();
        for (std::size_t s = 0; s < A; ++s) {
          if (members[s].empty()) continue;
          shards[s].send(make_shard_try_begin(
              {static_cast<std::uint64_t>(r), static_cast<std::uint32_t>(h),
               std::move(members[s])}));
          polled.push_back(s);
        }
      };
      steps.collect = [&](std::size_t h) {
        bool failed = false;
        for (const std::size_t s : polled) {
          PartialPopulation pp = parse_partial_population(
              shards[s].recv(MsgType::kPartialPopulation, to.upload));
          if (pp.shard_id != s || pp.round != r || pp.try_index != h) {
            throw TransportError("session: partial population for wrong try");
          }
          merge_and_kill(pp.quarantined);
          failed = failed || pp.failed;
          if (pp.contributors == 0) continue;
          merge_partial(psums[h], std::move(pp.ciphertext), session.public_key(),
                        params.num_classes, session_packed, "partial population");
        }
        if (failed) throw RestartRound{};
      };
      steps.finish = [&](std::size_t h) {
        return session.reduce_population({&*psums[h], 1});
      };
      try {
        fill_from_outcome(rec, core::multi_time_select(params.num_classes, params.H, steps));
        break;
      } catch (const RestartRound&) {
        rec = RoundRecord{};
      }
    }
    }

    // --- training round over the winning set (FedAvg over what arrives).
    // Recipients fan out as kShardUpdateBegin (selection-order subsequences
    // + the global weights); what comes back depends on the mode.
    {
    telemetry::Span upd_span("phase:update", &phase_hist(SessionPhase::kUpdate));
    const std::vector<float>& global = server.global_weights();
    std::vector<std::vector<std::uint64_t>> members(A);
    for (const std::size_t k : rec.selected) {
      members[shard_of(k)].push_back(static_cast<std::uint64_t>(k));
    }
    std::vector<std::size_t> polled;
    for (std::size_t s = 0; s < A; ++s) {
      if (members[s].empty()) continue;
      shards[s].send(make_shard_update_begin(
          {static_cast<std::uint64_t>(r), std::move(members[s]), global}));
      polled.push_back(s);
    }
    static telemetry::Histogram& fedavg_hist = telemetry::histogram("dubhe_fedavg_seconds");
    const std::uint8_t want_mode = params.secure.update_he_rate > 0.0 ? 1 : 0;
    std::vector<PartialUpdate> partials;
    partials.reserve(polled.size());
    for (const std::size_t s : polled) {
      PartialUpdate pu =
          parse_partial_update(shards[s].recv(MsgType::kPartialUpdate, to.update));
      if (pu.shard_id != s || pu.round != r || pu.mode != want_mode) {
        throw TransportError("session: bad partial update");
      }
      merge_and_kill(pu.quarantined);
      partials.push_back(std::move(pu));
    }
    if (want_mode == 1) {
      // Wire v3 selective encryption: top-k coordinates arrive as packed
      // ciphertexts the slices summed homomorphically (no aggregator sees
      // one in the clear), the rest as exact u64 partial sums — associative,
      // so element-adding them equals a client-order accumulation exactly.
      // The agent decrypts only the aggregate before the FedAvg merge, which
      // reweights over the m updates that actually arrived. If none did,
      // the round keeps the previous global model.
      const SparseUpdatePlan plan = sparse_plan(global, params.secure, N);
      std::size_t m = 0;
      std::vector<std::uint64_t> sums(plan.n, 0);
      std::optional<he::PackedEncryptedVector> enc_sum;
      for (PartialUpdate& pu : partials) {
        if (pu.contributors == 0) continue;
        if (pu.plain_sums.size() != plan.plain_idx.size()) {
          throw TransportError("session: partial update plan mismatch");
        }
        for (std::size_t j = 0; j < plan.plain_idx.size(); ++j) {
          sums[plan.plain_idx[j]] += pu.plain_sums[j];
        }
        merge_partial(enc_sum, std::move(pu.ciphertext), session.public_key(), plan.k,
                      plan.codec, "partial update");
        m += pu.contributors;
      }
      if (m > 0) {
        const std::vector<std::uint64_t> enc_sums = session.reduce_registry({&*enc_sum, 1});
        for (std::size_t j = 0; j < plan.k; ++j) sums[plan.mask[j]] = enc_sums[j];
        telemetry::ScopedTimer fedavg_timer(fedavg_hist);
        server.set_global_weights(core::merge_quantized_updates(
            global, sums, m, params.secure.update_quant_bits,
            params.secure.update_quant_scale));
      }
    } else {
      // Plaintext updates arrive forwarded; the float FedAvg sum is
      // order-sensitive, so they are reassembled in selection order first.
      std::vector<std::vector<float>> collected(N);
      std::vector<char> has(N, 0);
      for (std::size_t i = 0; i < partials.size(); ++i) {
        for (ShardUpdateEntry& e : partials[i].updates) {
          if (!shards[polled[i]].owns(e.client_id) || has[e.client_id]) {
            throw TransportError("session: foreign update entry");
          }
          has[e.client_id] = 1;
          collected[e.client_id] = std::move(e.weights);
        }
      }
      std::vector<std::vector<float>> updates;
      updates.reserve(rec.selected.size());
      for (const std::size_t k : rec.selected) {
        if (has[k]) updates.push_back(std::move(collected[k]));
      }
      if (!updates.empty()) {
        telemetry::ScopedTimer fedavg_timer(fedavg_hist);
        server.aggregate(updates);
      }
    }
    }
    rec.global_weights = server.global_weights();
    if (params.evaluate) rec.accuracy = server.evaluate(dataset);
    for (std::size_t i = qmark; i < t.quarantined.size(); ++i) {
      rec.dropped.push_back(t.quarantined[i].client_id);
    }
    std::sort(rec.dropped.begin(), rec.dropped.end());
    rec.ledger = fl::ledger_delta(acct.snapshot(), before);
    t.rounds.push_back(std::move(rec));
    static telemetry::Counter& rounds_total = telemetry::counter("dubhe_rounds_total");
    rounds_total.inc();
  }

  // --- shutdown: each slice drains its clients and sends one final flush
  // (round = kSetupRound) carrying whatever the drain quarantined. The
  // drain deadline is the zombie guard: a client that never acknowledges
  // gets a typed record and a closed link instead of wedging teardown.
  {
    telemetry::Span drain_span("phase:drain", &phase_hist(SessionPhase::kShutdown));
    for (std::size_t s = 0; s < A; ++s) shards[s].send(make_shutdown());
    for (std::size_t s = 0; s < A; ++s) {
      const PartialParticipation pp = parse_partial_participation(
          shards[s].recv(MsgType::kPartialParticipation, to.update));
      if (pp.shard_id != s || pp.round != kSetup) {
        throw TransportError("session: bad drain report");
      }
      merge_quarantines(pp.quarantined);
    }
    for (std::size_t s = 0; s < A; ++s) {
      if (shards[s].t != nullptr) shards[s].t->close();
    }
  }

  // Hello order (and with it record order) can depend on TCP accept order,
  // shard count and partial arrival order; the canonical sort makes the
  // quarantine list — and the transcript — a function of the fault plan
  // alone.
  std::sort(t.quarantined.begin(), t.quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) {
              return std::tie(a.client_id, a.round, a.phase, a.reason) <
                     std::tie(b.client_id, b.round, b.phase, b.reason);
            });
  return t;
}

}  // namespace

ShardSlice::ShardSlice(std::span<const std::shared_ptr<Transport>> client_links,
                       std::uint32_t shard_id, std::uint32_t num_shards,
                       std::size_t total_clients, const SessionParams& params)
    : client_links_(client_links),
      shard_id_(shard_id),
      total_(total_clients),
      range_(shard_range(total_clients, num_shards, shard_id)),
      params_(params),
      codec_(params.num_classes, params.reference_set),
      session_packed_(core::packed_codec(params.secure)),
      cohort_(range_.count, records_, range_.first) {
  if (client_links.size() != range_.count) {
    throw std::invalid_argument("ShardSlice: client link count does not match range");
  }
}

std::optional<Frame> ShardSlice::handle(const Frame& from_root) {
  issue(from_root);
  return collect();
}

void ShardSlice::issue(const Frame& from_root) {
  if (reply_ || try_) {
    throw WireError(WireErrc::kBadPayload, "shard: root request before the last reply");
  }
  switch (from_root.type) {
    case MsgType::kServerHello: hello(from_root); return;
    case MsgType::kKeyMaterial: reply_ = registration(from_root); return;
    case MsgType::kRegistryBroadcast: reply_ = broadcast(from_root); return;
    case MsgType::kShardRoundBegin: reply_ = round_begin(from_root); return;
    case MsgType::kShardTryBegin: try_issue(from_root); return;
    case MsgType::kShardUpdateBegin: reply_ = update_begin(from_root); return;
    case MsgType::kShutdown: reply_ = drain(); return;
    default:
      throw WireError(WireErrc::kBadPayload,
                      "shard: root sent unexpected " + to_string(from_root.type));
  }
}

std::optional<Frame> ShardSlice::collect() {
  if (try_) return try_collect();
  return std::exchange(reply_, std::nullopt);
}

void ShardSlice::advance(Stage want, Stage next) {
  if (stage_ != want) throw WireError(WireErrc::kBadPayload, "shard: root request out of order");
  stage_ = next;
}

void ShardSlice::require_round(std::uint64_t round) const {
  if (stage_ != Stage::kLive || !round_ || round != *round_) {
    throw WireError(WireErrc::kBadPayload, "shard: request for a round we are not in");
  }
}

void ShardSlice::check_members(std::span<const std::uint64_t> ids) const {
  // A repeated id would poll that client twice and count its upload twice
  // in the partial sums (and, for sparse updates, in m).
  std::vector<char> named(range_.count, 0);
  for (const std::uint64_t k : ids) {
    if (k < range_.first || k >= range_.first + range_.count) {
      throw WireError(WireErrc::kBadPayload, "shard: root named a client we do not own");
    }
    if (std::exchange(named[k - range_.first], 1) != 0) {
      throw WireError(WireErrc::kBadPayload, "shard: root named a client twice");
    }
  }
}

std::vector<QuarantineRecord> ShardSlice::flush() {
  std::vector<QuarantineRecord> out(records_.begin() + static_cast<std::ptrdiff_t>(flushed_),
                                    records_.end());
  flushed_ = records_.size();
  return out;
}

std::optional<he::PackedEncryptedVector> ShardSlice::accept_upload(std::size_t id,
                                                                   const Frame& up,
                                                                   std::size_t want_logical,
                                                                   std::uint64_t round,
                                                                   SessionPhase phase) {
  // Sessions speak packed ciphertexts only. A per-slot 'V' payload — or one
  // that is no encrypted vector at all — is a ciphertext failure; a 'K'
  // payload that does not parse is a framing failure; one that parses but
  // does not match the session (key, shape, packing geometry) is a
  // ciphertext failure again.
  QuarantineReason bad = QuarantineReason::kBadCiphertext;
  try {
    if (payload_is_packed(up)) {
      bad = QuarantineReason::kBadFrame;
      auto v = parse_packed_encrypted_vector(up, up.type);
      bad = QuarantineReason::kBadCiphertext;
      check_encrypted(v, session_key_, want_logical, session_packed_);
      return v;
    }
  } catch (const WireError&) {
  }
  cohort_.quarantine(id, round, phase, bad);
  return std::nullopt;
}

void ShardSlice::hello(const Frame& f) {
  advance(Stage::kFresh, Stage::kBound);
  const ServerHello root_hello = parse_server_hello(f);
  if (root_hello.cohort_index != shard_id_ || root_hello.num_clients != total_) {
    throw TransportError("shard: root bound us to the wrong shard");
  }
  session_seed_ = root_hello.session_seed;
  // The client-facing hello, restricted to the owned range. A link that
  // cannot produce a valid hello has no id yet, so its record carries
  // kUnknownClient; the link is closed and never joins the cohort.
  for (const auto& link : client_links_) {
    try {
      auto frame = link->receive(params_.timeouts.registration);
      QuarantineReason bad = QuarantineReason::kBadFrame;
      if (!frame) {
        bad = QuarantineReason::kDisconnect;
      } else if (frame->seq != 0) {
        bad = QuarantineReason::kReplay;
      } else if (frame->type == MsgType::kClientHello) {
        const ClientHello hello = parse_client_hello(*frame);
        if (hello.protocol == kWireVersion && hello.client_id >= range_.first &&
            hello.client_id < range_.first + range_.count &&
            !cohort_.alive(hello.client_id - range_.first)) {
          cohort_.bind(hello.client_id - range_.first, link);
          continue;
        }
      }
      link->close();
      cohort_.quarantine(kUnknown, kSetup, SessionPhase::kHello, bad);
    } catch (const TransportTimeout&) {
      link->close();
      cohort_.quarantine(kUnknown, kSetup, SessionPhase::kHello, QuarantineReason::kTimeout);
    } catch (const TransportError&) {
      link->close();
      cohort_.quarantine(kUnknown, kSetup, SessionPhase::kHello,
                         QuarantineReason::kDisconnect);
    } catch (const WireError&) {
      link->close();
      cohort_.quarantine(kUnknown, kSetup, SessionPhase::kHello, QuarantineReason::kBadFrame);
    }
  }
  for (std::size_t id = 0; id < range_.count; ++id) {
    cohort_.send(id,
                 make_server_hello({session_seed_, static_cast<std::uint32_t>(total_),
                                    static_cast<std::uint32_t>(global_id(id))}),
                 kSetup, SessionPhase::kHello);
  }
}

Frame ShardSlice::registration(const Frame& f) {
  advance(Stage::kBound, Stage::kKeyed);
  session_key_ = parse_key_material(f).pub;
  // Forwarded verbatim: each client receives the root's key frame byte for
  // byte.
  const Frame key_frame{MsgType::kKeyMaterial, f.payload};
  for (std::size_t id = 0; id < range_.count; ++id) {
    cohort_.send(id, key_frame, kSetup, SessionPhase::kRegistration);
  }
  for (std::size_t id = 0; id < range_.count; ++id) {
    cohort_.send(id,
                 make_seed_request(
                     MsgType::kRegistrationRequest,
                     {core::registration_stream_seed(session_seed_, global_id(id)), 0}),
                 kSetup, SessionPhase::kRegistration);
  }
  // Only the ciphertext crosses the wire: the plaintext registration entry
  // stays on the client, so no aggregator ever learns any client's category.
  PartialRegistry pr;
  pr.shard_id = shard_id_;
  std::optional<he::PackedEncryptedVector> sum;
  for (std::size_t id = 0; id < range_.count; ++id) {
    auto up = cohort_.recv(id, MsgType::kRegistryUpload, params_.timeouts.registration, kSetup,
                           SessionPhase::kRegistration);
    if (!up) continue;
    if (auto v = accept_upload(id, *up, codec_.length(), kSetup,
                               SessionPhase::kRegistration)) {
      accumulate(sum, *std::move(v));
      ++pr.contributors;
    }
  }
  pr.quarantined = flush();
  if (sum) pr.ciphertext = vector_bytes(*sum);
  return make_partial_registry(pr);
}

Frame ShardSlice::broadcast(const Frame& f) {
  advance(Stage::kKeyed, Stage::kLive);
  // Forwarded verbatim — the payload is the global sum, so each surviving
  // client receives the exact frame a single aggregator would send it.
  for (std::size_t id = 0; id < range_.count; ++id) {
    cohort_.send(id, Frame{MsgType::kRegistryBroadcast, f.payload}, kSetup,
                 SessionPhase::kRegistration);
  }
  return make_partial_participation({shard_id_, kSetup, flush(), {}});
}

Frame ShardSlice::round_begin(const Frame& f) {
  advance(Stage::kLive, Stage::kLive);
  const std::uint64_t round = parse_shard_round_begin(f).round;
  if (round != (round_ ? *round_ + 1 : 0)) {
    throw WireError(WireErrc::kBadPayload, "shard: rounds must advance one at a time");
  }
  round_ = round;
  for (std::size_t id = 0; id < range_.count; ++id) {
    cohort_.send(id, make_round_begin({round}), round, SessionPhase::kParticipation);
  }
  PartialParticipation pp;
  pp.shard_id = shard_id_;
  pp.round = round;
  for (std::size_t id = 0; id < range_.count; ++id) {
    if (!cohort_.alive(id)) continue;
    auto pf = cohort_.recv(id, MsgType::kParticipation, params_.timeouts.upload, round,
                           SessionPhase::kParticipation);
    if (!pf) continue;
    Participation part;
    try {
      part = parse_participation(*pf);
    } catch (const WireError&) {
      cohort_.quarantine(id, round, SessionPhase::kParticipation, QuarantineReason::kBadFrame);
      continue;
    }
    // Parsable frame but nonsensical volunteering — wrong (client, round)
    // binding, wrong try count, or non-bit draws — is its own category.
    bool ok = part.client_id == global_id(id) && part.round == round &&
              part.draws.size() == params_.H;
    for (const std::uint8_t d : part.draws) ok = ok && d <= 1;
    if (!ok) {
      cohort_.quarantine(id, round, SessionPhase::kParticipation,
                         QuarantineReason::kBadParticipation);
      continue;
    }
    pp.entries.push_back(std::move(part));
  }
  pp.quarantined = flush();
  return make_partial_participation(pp);
}

void ShardSlice::try_issue(const Frame& f) {
  ShardTryBegin tb = parse_shard_try_begin(f);
  require_round(tb.round);
  // try_slot = round * H + h must stay inside this round's H encryption
  // streams; a larger index would reuse another try's seeds.
  if (tb.try_index >= params_.H) {
    throw WireError(WireErrc::kBadPayload, "shard: try index out of range");
  }
  check_members(tb.selected);
  const std::size_t try_slot = tb.round * params_.H + tb.try_index;
  PartialPopulation pp;
  pp.shard_id = shard_id_;
  pp.round = tb.round;
  pp.try_index = tb.try_index;
  for (const std::uint64_t k : tb.selected) {
    if (!cohort_.send(k - range_.first,
                      make_seed_request(MsgType::kDistributionRequest,
                                        {core::distribution_stream_seed(session_seed_, total_,
                                                                        try_slot, k),
                                         tb.try_index}),
                      tb.round, SessionPhase::kDistribution)) {
      pp.failed = true;
    }
  }
  try_ = std::move(pp);
  try_members_ = std::move(tb.selected);
}

Frame ShardSlice::try_collect() {
  PartialPopulation pp = *std::move(try_);
  try_.reset();
  std::optional<he::PackedEncryptedVector> sum;
  for (const std::uint64_t k : try_members_) {
    const std::size_t id = k - range_.first;
    auto up = cohort_.recv(id, MsgType::kDistributionUpload, params_.timeouts.upload,
                           pp.round, SessionPhase::kDistribution);
    auto v = up ? accept_upload(id, *up, params_.num_classes, pp.round,
                                SessionPhase::kDistribution)
                : std::nullopt;
    if (!v) {
      pp.failed = true;
      continue;
    }
    accumulate(sum, *std::move(v));
    ++pp.contributors;
  }
  pp.quarantined = flush();
  if (sum) pp.ciphertext = vector_bytes(*sum);
  return make_partial_population(pp);
}

Frame ShardSlice::update_begin(const Frame& f) {
  const ShardUpdateBegin ub = parse_shard_update_begin(f);
  require_round(ub.round);
  check_members(ub.recipients);
  const std::uint64_t round_seed = stats::derive_seed(params_.round_seed, ub.round);
  std::vector<std::uint64_t> recipients;
  recipients.reserve(ub.recipients.size());
  for (const std::uint64_t k : ub.recipients) {
    if (cohort_.send(k - range_.first,
                     make_weights(MsgType::kModelDown,
                                  {stats::derive_seed(round_seed, k + 1), ub.weights}),
                     ub.round, SessionPhase::kUpdate)) {
      recipients.push_back(k);
    }
  }
  PartialUpdate pu;
  pu.shard_id = shard_id_;
  pu.round = ub.round;
  if (params_.secure.update_he_rate > 0.0) {
    // Wire v3 selective encryption: each participant ships a
    // kModelUpdateSparse — quantized, top-k coordinates packed into
    // ciphertexts, the rest plaintext. The slice sums both portions; the
    // root decrypts only the global aggregate.
    pu.mode = 1;
    const SparseUpdatePlan plan = sparse_plan(ub.weights, params_.secure, total_);
    const auto qb = static_cast<std::uint8_t>(params_.secure.update_quant_bits);
    std::vector<std::uint64_t> psums(plan.plain_idx.size(), 0);
    std::optional<he::PackedEncryptedVector> enc_sum;
    for (const std::uint64_t k : recipients) {
      const std::size_t id = k - range_.first;
      auto uf = cohort_.recv(id, MsgType::kModelUpdateSparse, params_.timeouts.update,
                             ub.round, SessionPhase::kUpdate);
      if (!uf) continue;
      ModelUpdateSparse up;
      try {
        up = parse_model_update_sparse(*uf);
      } catch (const WireError&) {
        cohort_.quarantine(id, ub.round, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
        continue;
      }
      if (up.client_id != k) {
        cohort_.quarantine(id, ub.round, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
        continue;
      }
      bool shape_ok =
          up.total_count == plan.n && up.quant_bits == qb && up.bitmap == plan.bitmap;
      try {
        if (shape_ok) check_encrypted(up.encrypted, session_key_, plan.k, plan.codec);
      } catch (const WireError&) {
        shape_ok = false;
      }
      if (!shape_ok) {
        cohort_.quarantine(id, ub.round, SessionPhase::kUpdate,
                           QuarantineReason::kBadCiphertext);
        continue;
      }
      for (std::size_t j = 0; j < plan.plain_idx.size(); ++j) {
        psums[j] += up.plain_values[j];
      }
      accumulate(enc_sum, std::move(up.encrypted));
      ++pu.contributors;
    }
    if (enc_sum) {
      pu.plain_sums = std::move(psums);
      pu.ciphertext = vector_bytes(*enc_sum);
    }
  } else {
    pu.mode = 0;
    for (const std::uint64_t k : recipients) {
      const std::size_t id = k - range_.first;
      auto uf = cohort_.recv(id, MsgType::kModelUpdate, params_.timeouts.update, ub.round,
                             SessionPhase::kUpdate);
      if (!uf) continue;
      WeightsMsg up;
      try {
        up = parse_weights(*uf, MsgType::kModelUpdate);
      } catch (const WireError&) {
        cohort_.quarantine(id, ub.round, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
        continue;
      }
      if (up.seed != k) {
        cohort_.quarantine(id, ub.round, SessionPhase::kUpdate, QuarantineReason::kBadFrame);
        continue;
      }
      pu.updates.push_back({k, std::move(up.weights)});
    }
  }
  pu.quarantined = flush();
  return make_partial_update(pu);
}

Frame ShardSlice::drain() {
  advance(Stage::kLive, Stage::kDone);
  for (std::size_t id = 0; id < range_.count; ++id) {
    cohort_.send(id, make_shutdown(), kSetup, SessionPhase::kShutdown);
  }
  for (std::size_t id = 0; id < range_.count; ++id) {
    cohort_.shutdown_drain(id, params_.timeouts.drain);
  }
  return make_partial_participation({shard_id_, kSetup, flush(), {}});
}

SessionTranscript run_aggregator(std::span<const std::shared_ptr<Transport>> links,
                                 Downlinks downlinks, const data::FederatedDataset& dataset,
                                 const nn::Sequential& prototype, const SessionParams& params,
                                 fl::ChannelAccountant* channel) {
  // Accounting lives on the transports (exact frame sizes, aggregator
  // perspective). A session-local accountant is always attached so the
  // transcript's per-round ledgers exist even without a caller channel; it
  // is merged into `channel` at the end and detached on every exit path
  // (the links may outlive this call).
  fl::ChannelAccountant acct;
  const auto attach = [&](fl::ChannelAccountant* a) {
    for (const auto& link : links) link->set_accountant(a, fl::Direction::kServerToClient);
  };
  attach(&acct);
  SessionTranscript t;
  try {
    t = aggregate_session(links, downlinks, dataset, prototype, params, acct);
  } catch (...) {
    attach(nullptr);
    throw;
  }
  attach(nullptr);
  if (channel != nullptr) channel->add(acct.snapshot());
  return t;
}

}  // namespace detail

ShardRange shard_range(std::size_t total, std::size_t num_shards, std::size_t shard) {
  if (num_shards == 0) throw std::invalid_argument("shard_range: num_shards == 0");
  if (shard >= num_shards) throw std::invalid_argument("shard_range: shard out of range");
  const std::size_t base = total / num_shards;
  const std::size_t rem = total % num_shards;
  ShardRange r;
  r.count = base + (shard < rem ? 1 : 0);
  r.first = shard * base + std::min(shard, rem);
  return r;
}

SessionTranscript run_root_session(std::span<const std::shared_ptr<Transport>> shard_links,
                                   const data::FederatedDataset& dataset,
                                   const nn::Sequential& prototype,
                                   const SessionParams& params,
                                   fl::ChannelAccountant* channel) {
  if (shard_links.empty()) {
    throw std::invalid_argument("run_root_session: at least one shard link required");
  }
  if (shard_links.size() > dataset.num_clients()) {
    throw std::invalid_argument("run_root_session: more shards than clients");
  }
  detail::check_session_params(params, dataset.num_clients());
  return detail::run_aggregator(shard_links, detail::Downlinks::kShards, dataset, prototype,
                                params, channel);
}

void serve_shard(Transport& uplink,
                 std::span<const std::shared_ptr<Transport>> client_links,
                 std::uint32_t shard_id, std::uint32_t num_shards,
                 std::size_t total_clients, const SessionParams& params) {
  detail::ShardSlice slice(client_links, shard_id, num_shards, total_clients, params);
  if (telemetry::enabled()) {
    telemetry::gauge("dubhe_tree_shards").set(static_cast<std::int64_t>(num_shards));
  }

  // Uplink discipline mirrors serve_client: stamped sequence numbers both
  // ways, and any root-side anomaly is fatal (the root is this process's
  // whole reason to exist).
  std::uint16_t up_send = 0;
  std::uint16_t up_recv = 0;
  auto send_up = [&](Frame f) {
    f.seq = up_send++;
    uplink.send(f);
  };
  const ShardRange range = slice.range();
  send_up(make_shard_hello({shard_id, num_shards, range.first, range.count,
                            total_clients, kWireVersion}));

  // The shard process's phase spans and partial counters live here, not in
  // the slice, so a flat session (whose root drives its slice in-process)
  // observes every phase exactly once. The registration span runs from the
  // key material through the broadcast forward.
  std::optional<telemetry::Span> span;
  const auto open = [&](const char* name, SessionPhase phase) {
    span.emplace(name, &detail::phase_hist(phase));
  };
  for (;;) {
    auto f = uplink.receive();
    if (!f) throw TransportError("serve_shard: root vanished before shutdown");
    if (f->seq != up_recv) {
      throw WireError(WireErrc::kReplayed, "serve_shard: root frame out of sequence");
    }
    ++up_recv;
    const char* partial = nullptr;
    switch (f->type) {
      case MsgType::kServerHello: open("phase:hello", SessionPhase::kHello); break;
      case MsgType::kKeyMaterial:
        open("phase:registration", SessionPhase::kRegistration);
        partial = "partial_registry";
        break;
      case MsgType::kRegistryBroadcast: partial = "setup_flush"; break;
      case MsgType::kShardRoundBegin:
        open("phase:participation", SessionPhase::kParticipation);
        partial = "partial_participation";
        break;
      case MsgType::kShardTryBegin:
        open("phase:distribution", SessionPhase::kDistribution);
        partial = "partial_population";
        break;
      case MsgType::kShardUpdateBegin:
        open("phase:update", SessionPhase::kUpdate);
        partial = "partial_update";
        break;
      case MsgType::kShutdown:
        open("phase:drain", SessionPhase::kShutdown);
        partial = "drain_flush";
        break;
      default: break;  // the slice rejects it
    }
    if (const std::optional<Frame> reply = slice.handle(*f)) {
      send_up(*reply);
      detail::count_partial(partial);
    }
    if (f->type != MsgType::kKeyMaterial) span.reset();
    if (f->type == MsgType::kShutdown) {
      uplink.close();
      return;
    }
  }
}

SessionTranscript run_tree_session(const data::FederatedDataset& dataset,
                                   const nn::Sequential& prototype,
                                   const SessionParams& params, std::size_t num_shards,
                                   fl::ChannelAccountant* channel) {
  return run_tree_session(dataset, prototype, params, num_shards,
                          std::span<const FaultPlan>{}, channel);
}

SessionTranscript run_tree_session(const data::FederatedDataset& dataset,
                                   const nn::Sequential& prototype,
                                   const SessionParams& params, std::size_t num_shards,
                                   std::span<const FaultPlan> plans,
                                   fl::ChannelAccountant* channel) {
  const std::size_t N = dataset.num_clients();
  const std::size_t A = num_shards;
  if (A == 0 || A > N) {
    throw std::invalid_argument("run_tree_session: need 1..N shards");
  }

  std::vector<std::shared_ptr<Transport>> root_side(A);   // root's ends of uplinks
  std::vector<std::shared_ptr<Transport>> shard_up(A);    // shards' ends of uplinks
  std::vector<std::vector<std::shared_ptr<Transport>>> shard_side(A);  // per-shard client links
  std::vector<std::shared_ptr<Transport>> client_side(N);
  for (std::size_t s = 0; s < A; ++s) {
    auto [a, b] = LoopbackTransport::make_pair();
    root_side[s] = std::move(a);
    shard_up[s] = std::move(b);
    const ShardRange range = shard_range(N, A, s);
    shard_side[s].resize(range.count);
    for (std::size_t i = 0; i < range.count; ++i) {
      auto [sa, sb] = LoopbackTransport::make_pair();
      shard_side[s][i] = std::move(sa);
      client_side[range.first + i] = std::move(sb);
    }
  }

  // A shard death surfaces at the root as a TransportError AND is rethrown
  // by the harness, since shards are infrastructure.
  detail::Harness h;
  h.client_link = [&](std::size_t id) { return client_side[id]; };
  for (std::size_t s = 0; s < A; ++s) {
    h.shards.push_back([&, s] {
      try {
        serve_shard(*shard_up[s], shard_side[s], static_cast<std::uint32_t>(s),
                    static_cast<std::uint32_t>(A), N, params);
      } catch (...) {
        shard_up[s]->close();
        for (auto& link : shard_side[s]) link->close();
        throw;
      }
    });
  }
  h.drive = [&] { return run_root_session(root_side, dataset, prototype, params, channel); };
  h.abort = [&] {
    for (auto& link : root_side) link->close();
    for (auto& per_shard : shard_side) {
      for (auto& link : per_shard) link->close();
    }
  };
  return detail::run_harness("run_tree_session", dataset, prototype, params, plans, h);
}

SessionTranscript run_tree_tcp_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params,
                                       std::size_t num_shards, std::size_t workers,
                                       fl::ChannelAccountant* channel) {
  return run_tree_tcp_session(dataset, prototype, params, num_shards,
                              std::span<const FaultPlan>{}, workers, channel);
}

SessionTranscript run_tree_tcp_session(const data::FederatedDataset& dataset,
                                       const nn::Sequential& prototype,
                                       const SessionParams& params,
                                       std::size_t num_shards,
                                       std::span<const FaultPlan> plans,
                                       std::size_t workers,
                                       fl::ChannelAccountant* channel) {
  const std::size_t N = dataset.num_clients();
  const std::size_t A = num_shards;
  if (A == 0 || A > N) {
    throw std::invalid_argument("run_tree_tcp_session: need 1..N shards");
  }

  // Servers first, so every port is known before any thread connects: the
  // root listens for shards, each shard listens for its slice of clients.
  TcpServer root_server(0, workers);
  std::vector<std::unique_ptr<TcpServer>> shard_servers;
  shard_servers.reserve(A);
  for (std::size_t s = 0; s < A; ++s) {
    shard_servers.push_back(std::make_unique<TcpServer>(0, workers));
  }

  detail::Harness h;
  h.client_link = [&](std::size_t id) {
    std::size_t s = 0;
    while (id >= shard_range(N, A, s).first + shard_range(N, A, s).count) ++s;
    return TcpTransport::connect("127.0.0.1", shard_servers[s]->port());
  };
  for (std::size_t s = 0; s < A; ++s) {
    h.shards.push_back([&, s] {
      const ShardRange range = shard_range(N, A, s);
      std::vector<std::shared_ptr<Transport>> links;
      std::shared_ptr<Transport> up;
      try {
        links.reserve(range.count);
        for (std::size_t i = 0; i < range.count; ++i) {
          auto link = shard_servers[s]->accept();
          if (link == nullptr) throw TransportError("tree shard: server stopped");
          links.push_back(std::move(link));
        }
        up = TcpTransport::connect("127.0.0.1", root_server.port());
        serve_shard(*up, links, static_cast<std::uint32_t>(s),
                    static_cast<std::uint32_t>(A), N, params);
      } catch (...) {
        if (up != nullptr) up->close();
        for (auto& link : links) link->close();
        // A shard that dies before connecting upward would leave the root's
        // accept loop waiting forever; stopping the root server turns that
        // into a clean TransportError on the main thread.
        root_server.stop();
        throw;
      }
    });
  }
  std::vector<std::shared_ptr<Transport>> links;
  h.drive = [&] {
    for (std::size_t s = 0; s < A; ++s) {
      auto link = root_server.accept();
      if (link == nullptr) throw TransportError("run_tree_tcp_session: server stopped");
      links.push_back(std::move(link));
    }
    return run_root_session(links, dataset, prototype, params, channel);
  };
  h.abort = [&] {
    for (auto& link : links) link->close();
    root_server.stop();
    for (auto& srv : shard_servers) srv->stop();
  };
  return detail::run_harness("run_tree_tcp_session", dataset, prototype, params, plans, h);
}

}  // namespace dubhe::net

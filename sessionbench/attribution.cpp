#include "attribution.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "bigint/random.hpp"
#include "core/selective.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "net/codec.hpp"
#include "paillier/packing.hpp"

namespace sessionbench {

namespace net = dubhe::net;
namespace he = dubhe::he;
namespace fl = dubhe::fl;
using net::Frame;
using net::MsgType;

namespace {

constexpr int kPhaseTrack = 1;
constexpr std::uint64_t kReplaySession = 0;
constexpr double kInf = std::numeric_limits<double>::infinity();

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Median seconds per call of `fn`, in one replay span. Calls shorter than
/// a millisecond are timed in batches so the clock's granularity vanishes.
double per_call(Tracer& tracer, const std::string& name, const std::function<void()>& fn) {
  ScopedSpan span(&tracer, "replay:" + name);
  const double t0 = now_s();
  fn();
  const double first = now_s() - t0;
  const std::size_t batch =
      first >= 1e-3 ? 1 : static_cast<std::size_t>(std::ceil(1e-3 / std::max(first, 1e-7)));
  const std::size_t samples = first >= 0.05 ? 3 : first >= 5e-3 ? 5 : 9;
  std::vector<double> v;
  for (std::size_t s = 0; s < samples; ++s) {
    const double start = now_s();
    for (std::size_t i = 0; i < batch; ++i) fn();
    v.push_back((now_s() - start) / static_cast<double>(batch));
  }
  return median(v);
}

struct CodecCost {
  double encode_s = 0;  // typed make_* + frame encode (header, CRC)
  double decode_s = 0;  // frame decode (CRC check) + typed parse_*
};

template <class Parse, class Make>
CodecCost codec_cost(Tracer& tracer, const Frame& f, Parse parse, Make make) {
  const std::vector<std::uint8_t> bytes = net::encode_frame(f);
  const auto typed = parse(f);
  std::size_t sink = 0;
  const std::string name = net::to_string(f.type);
  CodecCost c;
  c.encode_s = per_call(tracer, "codec.encode[" + name + "]",
                        [&] { sink += net::encode_frame(make(typed)).size(); });
  c.decode_s = per_call(tracer, "codec.decode[" + name + "]", [&] {
    (void)parse(net::decode_frame(bytes));
    ++sink;
  });
  return c;
}

/// The typed codec pair of every frame type a round carries; other types
/// (setup only) cost frame encode/decode alone.
CodecCost codec_cost(Tracer& tracer, const Frame& f) {
  const MsgType t = f.type;
  switch (t) {
    case MsgType::kRoundBegin:
      return codec_cost(tracer, f, [](const Frame& x) { return net::parse_round_begin(x); },
                        [](const net::RoundBegin& m) { return net::make_round_begin(m); });
    case MsgType::kParticipation:
      return codec_cost(tracer, f, [](const Frame& x) { return net::parse_participation(x); },
                        [](const net::Participation& m) { return net::make_participation(m); });
    case MsgType::kDistributionRequest:
      return codec_cost(
          tracer, f, [t](const Frame& x) { return net::parse_seed_request(x, t); },
          [t](const net::SeedRequest& m) { return net::make_seed_request(t, m); });
    case MsgType::kDistributionUpload:
      return codec_cost(
          tracer, f, [t](const Frame& x) { return net::parse_packed_encrypted_vector(x, t); },
          [t](const he::PackedEncryptedVector& v) { return net::make_encrypted_vector(t, v); });
    case MsgType::kModelDown:
    case MsgType::kModelUpdate:
      return codec_cost(
          tracer, f, [t](const Frame& x) { return net::parse_weights(x, t); },
          [t](const net::WeightsMsg& m) { return net::make_weights(t, m); });
    case MsgType::kModelUpdateSparse:
      return codec_cost(
          tracer, f, [](const Frame& x) { return net::parse_model_update_sparse(x); },
          [](const net::ModelUpdateSparse& m) { return net::make_model_update_sparse(m); });
    case MsgType::kShardRoundBegin:
      return codec_cost(
          tracer, f, [](const Frame& x) { return net::parse_shard_round_begin(x); },
          [](const net::ShardRoundBegin& m) { return net::make_shard_round_begin(m); });
    case MsgType::kPartialParticipation:
      return codec_cost(
          tracer, f, [](const Frame& x) { return net::parse_partial_participation(x); },
          [](const net::PartialParticipation& m) { return net::make_partial_participation(m); });
    case MsgType::kShardTryBegin:
      return codec_cost(
          tracer, f, [](const Frame& x) { return net::parse_shard_try_begin(x); },
          [](const net::ShardTryBegin& m) { return net::make_shard_try_begin(m); });
    case MsgType::kPartialPopulation:
      return codec_cost(
          tracer, f, [](const Frame& x) { return net::parse_partial_population(x); },
          [](const net::PartialPopulation& m) { return net::make_partial_population(m); });
    case MsgType::kShardUpdateBegin:
      return codec_cost(
          tracer, f, [](const Frame& x) { return net::parse_shard_update_begin(x); },
          [](const net::ShardUpdateBegin& m) { return net::make_shard_update_begin(m); });
    case MsgType::kPartialUpdate:
      return codec_cost(
          tracer, f, [](const Frame& x) { return net::parse_partial_update(x); },
          [](const net::PartialUpdate& m) { return net::make_partial_update(m); });
    default:
      return codec_cost(tracer, f, [](const Frame& x) { return x; },
                        [](const Frame& x) { return x; });
  }
}

const Frame& captured(const std::map<MsgType, Frame>& frames, MsgType t) {
  const auto it = frames.find(t);
  if (it == frames.end()) {
    throw std::runtime_error("traced run captured no " + net::to_string(t) + " frame");
  }
  return it->second;
}

/// Replayed costs of one encrypted vector shape under the session key.
struct VectorCost {
  std::size_t ciphertexts = 0;
  double encrypt_s = 0, decrypt_s = 0, add_s = 0;  // per vector
};

VectorCost vector_cost(Tracer& tracer, const std::string& what,
                       const he::PackedEncryptedVector& v, const he::Keypair& kp) {
  if (!(v.public_key() == kp.pub)) {
    throw std::runtime_error("replayed keygen does not reproduce the session key");
  }
  const std::vector<std::uint64_t> values = v.decrypt(kp.prv);
  std::size_t sink = 0;
  std::uint64_t stream = 1;
  VectorCost c;
  c.ciphertexts = v.ciphertext_count();
  c.encrypt_s = per_call(tracer, "paillier.encrypt[" + what + "]", [&] {
    dubhe::bigint::Xoshiro256ss rng(stream++);
    sink += he::PackedEncryptedVector::encrypt(kp.pub, v.codec(), values, rng)
                .ciphertext_count();
  });
  c.decrypt_s = per_call(tracer, "paillier.decrypt[" + what + "]",
                         [&] { sink += v.decrypt(kp.prv).size(); });
  c.add_s = per_call(tracer, "paillier.add[" + what + "]", [&] {
    he::PackedEncryptedVector sum = v;
    sum += v;
    sink += sum.ciphertext_count();
  });
  return c;
}

bool is_update_reply(MsgType t, bool tree) {
  return tree ? t == MsgType::kPartialUpdate
              : (t == MsgType::kModelUpdate || t == MsgType::kModelUpdateSparse);
}

bool is_partial(MsgType t) {
  return t == MsgType::kPartialRegistry || t == MsgType::kPartialParticipation ||
         t == MsgType::kPartialPopulation || t == MsgType::kPartialUpdate;
}

/// Everything read off the link events of the traced sessions, summed over
/// sessions (rounds = total traced rounds).
struct Observed {
  std::size_t rounds = 0;
  std::vector<double> registration, participation, distribution, update, merge;
  double covered = 0, wall = 0;
  std::vector<double> registry_upload, broadcast_decrypt, distribution_upload, client_update;
  std::map<MsgType, double> frames_by_type;
  double frames = 0, bytes = 0, send_s = 0, server_wait_s = 0, partials = 0,
         uplink_bytes = 0;
  double dist_uploads = 0, sparse_updates = 0, tries = 0, dist_adds = 0, update_adds = 0,
         update_rounds = 0, selected = 0, quarantined = 0;
};

void observe_session(const Instance& in, Tracer& tracer, std::uint64_t sid,
                     const SessionRun& run, const std::vector<LinkEvent>& all, Observed& o) {
  const bool tree = in.workload.shards > 0;
  const std::size_t R = in.params.rounds;
  const MsgType round_begin = tree ? MsgType::kShardRoundBegin : MsgType::kRoundBegin;
  const MsgType try_begin = tree ? MsgType::kShardTryBegin : MsgType::kDistributionRequest;
  const MsgType update_begin = tree ? MsgType::kShardUpdateBegin : MsgType::kModelDown;

  std::vector<const LinkEvent*> ev;
  for (const LinkEvent& e : all) {
    if (e.session == sid) ev.push_back(&e);
  }

  // The aggregator's phase machine, split where the frame type changes.
  std::vector<double> begin(R, kInf), tries(R, kInf), updates(R, kInf), replies(R, -kInf);
  double shutdown = kInf;
  for (const LinkEvent* e : ev) {
    if (e->role != LinkRole::kAggregator) continue;
    const bool in_round = e->round >= 0 && static_cast<std::size_t>(e->round) < R;
    const auto r = static_cast<std::size_t>(in_round ? e->round : 0);
    if (e->send && e->type == MsgType::kShutdown) shutdown = std::min(shutdown, e->start);
    if (!in_round) continue;
    if (e->send && e->type == round_begin) begin[r] = std::min(begin[r], e->start);
    if (e->send && e->type == try_begin) tries[r] = std::min(tries[r], e->start);
    if (e->send && e->type == update_begin) updates[r] = std::min(updates[r], e->start);
    if (!e->send && is_update_reply(e->type, tree)) replies[r] = std::max(replies[r], e->end);
  }
  for (std::size_t r = 0; r < R; ++r) {
    if (!std::isfinite(begin[r]) || !std::isfinite(tries[r]) || !std::isfinite(updates[r]) ||
        !std::isfinite(replies[r]) || !std::isfinite(shutdown)) {
      throw std::runtime_error("traced session is missing a phase boundary in round " +
                               std::to_string(r));
    }
  }
  // Phase spans are children of the aggregator's entry-call span.
  const std::int64_t entry = tracer.find(tree ? "run_root_session" : "run_server_session", sid);
  const auto phase = [&](const char* name, std::vector<double>& into, double a, double b) {
    tracer.add(name, sid, kPhaseTrack, entry, a, b);
    into.push_back(b - a);
    o.covered += b - a;
  };
  phase("session.registration", o.registration, run.call, begin[0]);
  for (std::size_t r = 0; r < R; ++r) {
    const double next = r + 1 < R ? begin[r + 1] : shutdown;
    phase("session.participation", o.participation, begin[r], tries[r]);
    phase("session.distribution", o.distribution, tries[r], updates[r]);
    phase("session.update", o.update, updates[r], replies[r]);
    phase("session.merge", o.merge, replies[r], next);
  }
  std::vector<double> drain;
  phase("session.drain", drain, shutdown, run.call_return);
  o.wall += run.end - run.harness_start;
  o.rounds += R;

  // Client endpoints: request -> response gaps on each client link.
  std::map<int, std::vector<const LinkEvent*>> by_link;
  for (const LinkEvent* e : ev) {
    if (e->role == LinkRole::kClient) by_link[e->link].push_back(e);
  }
  for (const auto& [link, seq] : by_link) {
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      const LinkEvent& req = *seq[i];
      const LinkEvent& next = *seq[i + 1];
      if (req.send) continue;
      const double gap = next.start - req.end;
      switch (req.type) {
        case MsgType::kRegistrationRequest: o.registry_upload.push_back(gap); break;
        case MsgType::kRegistryBroadcast: o.broadcast_decrypt.push_back(gap); break;
        case MsgType::kDistributionRequest: o.distribution_upload.push_back(gap); break;
        case MsgType::kModelDown: o.client_update.push_back(gap); break;
        default: break;
      }
    }
  }

  // Frames, bytes and waits inside the round loop (setup excluded).
  std::map<std::pair<std::int64_t, std::int64_t>, double> uploads_per_try;
  std::map<std::int64_t, double> updates_per_round;
  for (const LinkEvent* e : ev) {
    if (e->start < begin[0] || e->start >= shutdown) continue;
    const double dur = e->end - e->start;
    if (e->send) {
      o.frames += 1;
      o.bytes += static_cast<double>(e->bytes);
      o.send_s += dur;
      o.frames_by_type[e->type] += 1;
      if (tree && (e->role == LinkRole::kAggregator || e->role == LinkRole::kShardUp)) {
        o.uplink_bytes += static_cast<double>(e->bytes);
      }
    }
    if (e->role == LinkRole::kAggregator && !e->send) {
      o.server_wait_s += dur;
      if (is_partial(e->type)) o.partials += 1;
    }
    if (e->role == LinkRole::kClient && e->send) {
      if (e->type == MsgType::kDistributionUpload) {
        o.dist_uploads += 1;
        uploads_per_try[{e->round, e->try_index}] += 1;
      }
      if (e->type == MsgType::kModelUpdateSparse) {
        o.sparse_updates += 1;
        updates_per_round[e->round] += 1;
      }
    }
  }
  // One agent decryption and (uploads - 1) homomorphic adds per try, and
  // likewise per round for the encrypted update sum.
  o.tries += static_cast<double>(uploads_per_try.size());
  for (const auto& [key, n] : uploads_per_try) o.dist_adds += n - 1;
  o.update_rounds += static_cast<double>(updates_per_round.size());
  for (const auto& [key, n] : updates_per_round) o.update_adds += n - 1;
  for (const auto& rec : run.transcript.rounds) o.selected += static_cast<double>(rec.selected.size());
  o.quarantined += static_cast<double>(run.transcript.quarantined.size());
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<Metric> attribute(const Instance& in, Tracer& tracer,
                              const std::vector<SessionRun>& traced,
                              double untraced_round_p50, double traced_round_p50) {
  if (traced.empty()) throw std::runtime_error("attribution needs a traced session");
  const std::vector<LinkEvent> events = tracer.events();
  Observed o;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    observe_session(in, tracer, i + 1, traced[i], events, o);
  }
  const auto R = static_cast<double>(o.rounds);
  const auto frames = tracer.frames();
  const bool encrypted_updates = in.params.secure.update_he_rate > 0.0;

  // --- layer replay at the workload's exact shapes, under the session key.
  ThreadScope replay(&tracer, kReplaySession, 2, "layer replay");
  dubhe::bigint::Xoshiro256ss he_rng(in.params.he_seed);
  he::Keypair kp;
  double keygen_s = 0;
  {
    ScopedSpan span(&tracer, "replay:paillier.keygen");
    const double t0 = now_s();
    kp = he::Keypair::generate(he_rng, in.params.secure.key_bits);
    keygen_s = now_s() - t0;
  }
  const net::KeyMaterial km = net::parse_key_material(captured(frames, MsgType::kKeyMaterial));
  if (!(km.pub == kp.pub)) {
    throw std::runtime_error("replayed keygen does not reproduce the session key");
  }
  const VectorCost dist = vector_cost(
      tracer, "distribution",
      net::parse_packed_encrypted_vector(captured(frames, MsgType::kDistributionUpload),
                                         MsgType::kDistributionUpload),
      kp);
  VectorCost upd;
  if (encrypted_updates) {
    upd = vector_cost(
        tracer, "update",
        net::parse_model_update_sparse(captured(frames, MsgType::kModelUpdateSparse)).encrypted,
        kp);
  }

  const net::WeightsMsg down =
      net::parse_weights(captured(frames, MsgType::kModelDown), MsgType::kModelDown);
  const auto samples = in.dataset.client_samples(0);
  const fl::Client client(0, {samples.begin(), samples.end()}, &in.dataset);
  std::vector<float> trained;
  const double train_s = per_call(tracer, "fl.Client.train", [&] {
    trained = client.train(in.prototype, down.weights, in.params.train, down.seed);
  });
  const std::size_t batch = in.params.train.batch_size;
  const double steps = static_cast<double>(in.params.train.epochs *
                                           ((samples.size() + batch - 1) / batch));

  const std::size_t K = in.params.K;
  double fedavg_s = 0;
  if (encrypted_updates) {
    const auto& sc = in.params.secure;
    std::vector<std::uint64_t> sums =
        dubhe::core::quantize_update(down.weights, trained, sc.update_quant_bits,
                                     sc.update_quant_scale);
    for (auto& s : sums) s *= K;
    fedavg_s = per_call(tracer, "fedavg[quantized]", [&] {
      (void)dubhe::core::merge_quantized_updates(down.weights, sums, K, sc.update_quant_bits,
                                                 sc.update_quant_scale);
    });
  } else {
    const std::vector<std::vector<float>> updates(K, trained);
    fl::Server server(in.prototype);
    fedavg_s = per_call(tracer, "fedavg[float]", [&] { server.aggregate(updates); });
  }

  double encode_s = 0, decode_s = 0;
  for (const auto& [type, count] : o.frames_by_type) {
    const CodecCost c = codec_cost(tracer, captured(frames, type));
    encode_s += count * c.encode_s;
    decode_s += count * c.decode_s;
  }

  const double enc_count = o.dist_uploads * static_cast<double>(dist.ciphertexts) +
                           o.sparse_updates * static_cast<double>(upd.ciphertexts);
  const double dec_count = o.tries * static_cast<double>(dist.ciphertexts) +
                           o.update_rounds * static_cast<double>(upd.ciphertexts);
  const double add_count = o.dist_adds * static_cast<double>(dist.ciphertexts) +
                           o.update_adds * static_cast<double>(upd.ciphertexts);
  const double enc_s = o.dist_uploads * dist.encrypt_s + o.sparse_updates * upd.encrypt_s;
  const double dec_s = o.tries * dist.decrypt_s + o.update_rounds * upd.decrypt_s;
  const double add_s = o.dist_adds * dist.add_s + o.update_adds * upd.add_s;

  const std::size_t n_rounds = o.rounds;
  const std::size_t n_sessions = traced.size();
  std::vector<Metric> m = {
      {"session.registration_s", mean(o.registration), "s", n_sessions},
      {"session.participation_s", mean(o.participation), "s", n_rounds},
      {"session.distribution_s", mean(o.distribution), "s", n_rounds},
      {"session.update_s", mean(o.update), "s", n_rounds},
      {"session.merge_s", mean(o.merge), "s", n_rounds},
      {"session.quarantined", o.quarantined, "count", n_sessions},
      {"paillier.keygen_s", keygen_s, "s", 1},
      {"paillier.encrypt.count", enc_count / R, "count", n_rounds},
      {"paillier.encrypt_s", enc_s / R, "s", n_rounds},
      {"paillier.decrypt.count", dec_count / R, "count", n_rounds},
      {"paillier.decrypt_s", dec_s / R, "s", n_rounds},
      {"paillier.add.count", add_count / R, "count", n_rounds},
      {"paillier.add_s", add_s / R, "s", n_rounds},
      {"client.registry_upload_s", mean(o.registry_upload), "s", o.registry_upload.size()},
      {"client.broadcast_decrypt_s", mean(o.broadcast_decrypt), "s",
       o.broadcast_decrypt.size()},
      {"client.distribution_upload_s", mean(o.distribution_upload), "s",
       o.distribution_upload.size()},
      {"client.update_s", mean(o.client_update), "s", o.client_update.size()},
      {"train.client_round_s", train_s, "s", 1},
      {"train.steps", steps, "count", 1},
      {"fedavg_s", fedavg_s, "s", 1},
      {"codec.encode_s", encode_s / R, "s", n_rounds},
      {"codec.decode_s", decode_s / R, "s", n_rounds},
      {"transport.frames", o.frames / R, "count", n_rounds},
      {"transport.bytes", o.bytes / R, "B", n_rounds},
      {"transport.server_wait_s", o.server_wait_s / R, "s", n_rounds},
      {"transport.send_s", o.send_s / R, "s", n_rounds},
      {"shard.partials", o.partials / R, "count", n_rounds},
      {"shard.uplink_bytes", o.uplink_bytes / R, "B", n_rounds},
      // The root is the aggregator; a flat aggregator is its own single
      // in-process shard, so this is its wait on the client replies.
      {"shard.root_wait_s", o.server_wait_s / R, "s", n_rounds},
      {"selection.useful_upload_frac", o.dist_uploads > 0 ? o.selected / o.dist_uploads : 0,
       "ratio", n_rounds},
      {"trace.coverage", o.wall > 0 ? o.covered / o.wall : 0, "ratio", n_sessions},
      {"trace.overhead_frac",
       untraced_round_p50 > 0 ? traced_round_p50 / untraced_round_p50 - 1 : 0, "ratio",
       n_rounds},
  };
  return m;
}

}  // namespace sessionbench

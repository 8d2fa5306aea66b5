#include "net/cohort.hpp"

#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/selective.hpp"

namespace dubhe::net::detail {

void check_encrypted(const he::PackedEncryptedVector& v, const he::PublicKey& session_key,
                     std::size_t want_logical, const he::PackedCodec& want_codec) {
  // Both geometry fields matter: a forged slots_per_plaintext can keep the
  // ciphertext count identical while shifting every slot boundary.
  if (!(v.public_key() == session_key) || v.logical_size() != want_logical ||
      v.codec().slot_bits() != want_codec.slot_bits() ||
      v.codec().slots_per_plaintext() != want_codec.slots_per_plaintext()) {
    throw WireError(WireErrc::kBadPayload,
                    "packed encrypted payload does not match the session");
  }
}

telemetry::Histogram& phase_hist(SessionPhase phase) {
  static telemetry::Histogram& hello =
      telemetry::histogram("dubhe_phase_seconds{phase=\"hello\"}");
  static telemetry::Histogram& registration =
      telemetry::histogram("dubhe_phase_seconds{phase=\"registration\"}");
  static telemetry::Histogram& participation =
      telemetry::histogram("dubhe_phase_seconds{phase=\"participation\"}");
  static telemetry::Histogram& distribution =
      telemetry::histogram("dubhe_phase_seconds{phase=\"distribution\"}");
  static telemetry::Histogram& update =
      telemetry::histogram("dubhe_phase_seconds{phase=\"update\"}");
  static telemetry::Histogram& shutdown =
      telemetry::histogram("dubhe_phase_seconds{phase=\"drain\"}");
  switch (phase) {
    case SessionPhase::kHello: return hello;
    case SessionPhase::kRegistration: return registration;
    case SessionPhase::kParticipation: return participation;
    case SessionPhase::kDistribution: return distribution;
    case SessionPhase::kUpdate: return update;
    case SessionPhase::kShutdown: return shutdown;
  }
  return hello;
}

void ServerCohort::quarantine(std::uint64_t id, std::uint64_t round, SessionPhase phase,
                              QuarantineReason reason) {
  if (telemetry::enabled()) {
    // Quarantines are rare (fault paths only), so the per-call registry
    // lookup for the label is fine here — no cached ref needed.
    telemetry::counter("dubhe_quarantine_total{reason=\"" + to_string(reason) + "\"}")
        .inc();
  }
  quarantined_.push_back({id == kUnknown ? kUnknown : id_base_ + id, round, phase, reason});
  if (id < links_.size() && links_[id].t != nullptr) {
    // Close immediately: a quarantined client's late frames must never be
    // read (they would desynchronize the per-phase receive sweeps).
    links_[id].t->close();
    links_[id].t = nullptr;
  }
}

bool ServerCohort::send(std::size_t id, Frame frame, std::uint64_t round,
                        SessionPhase phase) {
  if (!alive(id)) return false;
  frame.seq = links_[id].send_seq;
  try {
    links_[id].t->send(frame);
  } catch (const TransportError&) {
    quarantine(id, round, phase, QuarantineReason::kDisconnect);
    return false;
  }
  ++links_[id].send_seq;
  return true;
}

std::optional<Frame> ServerCohort::recv(std::size_t id, MsgType want,
                                        std::chrono::milliseconds deadline,
                                        std::uint64_t round, SessionPhase phase) {
  if (!alive(id)) return std::nullopt;
  try {
    auto frame = links_[id].t->receive(deadline);
    if (!frame) {
      quarantine(id, round, phase, QuarantineReason::kDisconnect);
      return std::nullopt;
    }
    if (frame->seq != links_[id].recv_seq) {
      quarantine(id, round, phase, QuarantineReason::kReplay);
      return std::nullopt;
    }
    ++links_[id].recv_seq;
    if (frame->type != want) {
      quarantine(id, round, phase, QuarantineReason::kBadFrame);
      return std::nullopt;
    }
    return frame;
  } catch (const TransportTimeout&) {
    quarantine(id, round, phase, QuarantineReason::kTimeout);
  } catch (const TransportError&) {
    quarantine(id, round, phase, QuarantineReason::kDisconnect);
  } catch (const WireError&) {
    // Transport-level decode garbage (bad CRC, framing cut mid-stream).
    quarantine(id, round, phase, QuarantineReason::kBadFrame);
  }
  return std::nullopt;
}

void ServerCohort::shutdown_drain(std::size_t id, std::chrono::milliseconds deadline) {
  if (!alive(id)) return;
  try {
    while (links_[id].t->receive(deadline)) {
      // drain stragglers until the peer closes
    }
    links_[id].t->close();
    links_[id].t = nullptr;
  } catch (const TransportTimeout&) {
    quarantine(id, kSetup, SessionPhase::kShutdown, QuarantineReason::kTimeout);
  } catch (const TransportError&) {
    quarantine(id, kSetup, SessionPhase::kShutdown, QuarantineReason::kDisconnect);
  } catch (const WireError&) {
    quarantine(id, kSetup, SessionPhase::kShutdown, QuarantineReason::kBadFrame);
  }
}

SparseUpdatePlan sparse_plan(std::span<const float> global, const core::SecureConfig& sc,
                             std::size_t num_clients) {
  SparseUpdatePlan plan;
  plan.n = global.size();
  plan.k = core::update_encrypted_count(plan.n, sc.update_he_rate);
  plan.mask = core::topk_mask_indices(global, plan.k);
  plan.bitmap = core::make_update_bitmap(plan.mask, plan.n);
  plan.plain_idx.reserve(plan.n - plan.k);
  for (std::uint32_t i = 0; i < plan.n; ++i) {
    if ((plan.bitmap[i / 8] & (1u << (i % 8))) == 0) plan.plain_idx.push_back(i);
  }
  plan.codec = he::PackedCodec(sc.key_bits - 1,
                               core::update_slot_bits(sc.update_quant_bits, num_clients));
  return plan;
}

void fill_from_outcome(RoundRecord& r, core::MultiTimeOutcome&& mt) {
  r.try_emds = std::move(mt.try_emds);
  r.best_try = mt.best_try;
  r.selected = std::move(mt.selected);
  r.population = std::move(mt.population);
  r.emd_star = mt.emd_star;
}

void check_session_params(const SessionParams& params, std::size_t N) {
  if (params.K == 0) throw std::invalid_argument("session: K == 0");
  if (params.K > N) throw std::invalid_argument("session: K > N");
  if (params.rounds == 0) throw std::invalid_argument("session: rounds == 0");
}

SessionTranscript run_harness(const char* who, const data::FederatedDataset& dataset,
                              const nn::Sequential& prototype, const SessionParams& params,
                              std::span<const FaultPlan> plans, const Harness& h) {
  const std::size_t N = dataset.num_clients();
  if (!plans.empty() && plans.size() != N) {
    throw std::invalid_argument(std::string(who) + ": one fault plan per client required");
  }
  std::vector<std::exception_ptr> shard_errors(h.shards.size());
  std::vector<std::exception_ptr> client_errors(N);
  // Faulty endpoints, closed once the aggregator is done: a client still
  // inside an injected straggle then stops waiting, so the joins below end
  // with the session instead of with the straggle.
  std::mutex faulty_m;
  std::vector<std::shared_ptr<Transport>> faulty_endpoints;
  bool session_over = false;
  const auto close_faulty = [&] {
    std::lock_guard lock(faulty_m);
    session_over = true;
    for (const auto& endpoint : faulty_endpoints) endpoint->close();
  };
  std::vector<std::thread> threads;
  threads.reserve(h.shards.size() + N);
  for (std::size_t s = 0; s < h.shards.size(); ++s) {
    threads.emplace_back([&, s] {
      try {
        h.shards[s]();
      } catch (...) {
        shard_errors[s] = std::current_exception();
      }
    });
  }
  for (std::size_t id = 0; id < N; ++id) {
    threads.emplace_back([&, id] {
      const bool faulty = id < plans.size() && plans[id].enabled();
      std::shared_ptr<Transport> link;
      try {
        link = h.client_link(id);
        std::shared_ptr<Transport> endpoint = link;
        if (faulty) {
          endpoint = std::make_shared<FaultyTransport>(link, plans[id]);
          std::lock_guard lock(faulty_m);
          if (session_over) endpoint->close();
          faulty_endpoints.push_back(endpoint);
        }
        serve_client(*endpoint, id, dataset, prototype, params);
      } catch (...) {
        if (!faulty) client_errors[id] = std::current_exception();
        if (link != nullptr) link->close();
      }
    });
  }
  SessionTranscript t;
  try {
    t = h.drive();
  } catch (...) {
    h.abort();
    close_faulty();
    for (auto& th : threads) th.join();
    throw;
  }
  close_faulty();
  for (auto& th : threads) th.join();
  // Shards are infrastructure: their failure outranks any client's.
  for (auto& err : shard_errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
  for (auto& err : client_errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
  return t;
}

}  // namespace dubhe::net::detail

#pragma once

/// Shared machinery of the aggregator side. There is one aggregator phase
/// machine (run_aggregator, net/shard.cpp): the tree root. A flat session
/// is that root over one in-process ShardSlice covering the whole cohort;
/// a tree session is the same root over A remote slices (serve_shard).
/// Every slice sits at the receiving end of untrusted per-client links and
/// keeps the same discipline: typed quarantine instead of aborts,
/// session-key/shape validation before any ciphertext joins a homomorphic
/// sum, and one authoritative derivation for every plan or seed both ends
/// compute independently. Internal to the net layer — nothing here is part
/// of the public session API in net/node.hpp and net/shard.hpp.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/multitime.hpp"
#include "core/secure.hpp"
#include "core/telemetry.hpp"
#include "net/codec.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "net/transport.hpp"

namespace dubhe::net::detail {

constexpr std::uint64_t kUnknown = QuarantineRecord::kUnknownClient;
constexpr std::uint64_t kSetup = QuarantineRecord::kSetupRound;

/// Wire-parsed uploads are untrusted: before a ciphertext joins a
/// homomorphic sum it must carry the *session* key and the expected shape,
/// otherwise a misbehaving client could silently corrupt the aggregate
/// (deserialization only validates slots against the key the payload itself
/// embeds). Clients apply the same checks to the registry broadcast before
/// trusting its decryption, and the tree root applies them to every
/// shard-aggregated partial sum before it joins the global reduction.
void check_encrypted(const he::PackedEncryptedVector& v, const he::PublicKey& session_key,
                     std::size_t want_logical, const he::PackedCodec& want_codec);

/// Thrown inside a round's determination when a selected client failed its
/// distribution sweep: the sweep is always finished first (so every sent
/// request has its response consumed and the per-connection queues stay
/// balanced), the offenders are quarantined, and the whole determination
/// re-runs over the survivors. The replenish stream (sel_rng) continues —
/// the restart point is a deterministic function of the fault plan, which
/// keeps churn transcripts identical across transports.
struct RestartRound {};

/// Per-phase wall-clock histograms for the session drivers. Telemetry is
/// strictly out-of-band: nothing here touches the RNG streams, payloads, or
/// control flow, so transcripts stay byte-identical with telemetry on or
/// off. The root engine observes them once per phase; a remote shard
/// process (serve_shard) observes its own.
telemetry::Histogram& phase_hist(SessionPhase phase);

/// The aggregator's view of its cohort once the hello exchange bound links
/// to ids: per-client link + frame-sequence counters, and the quarantine
/// machinery. Any per-client failure — timeout, disconnect, malformed
/// frame, sequence violation — drops that client (typed record, link
/// closed) instead of aborting the session.
///
/// Ids passed in are cohort-local (indices into the link table); the
/// quarantine records carry `id_base + id` so a slice owning the global
/// range [id_base, id_base + n) emits records in global client ids — the
/// flat session's one slice has id_base = 0 and the two coincide.
class ServerCohort {
 public:
  ServerCohort(std::size_t n, std::vector<QuarantineRecord>& quarantined,
               std::uint64_t id_base = 0)
      : links_(n), quarantined_(quarantined), id_base_(id_base) {}

  void bind(std::size_t id, std::shared_ptr<Transport> t) {
    links_[id].t = std::move(t);
    links_[id].recv_seq = 1;  // the hello (seq 0) was already consumed
  }

  [[nodiscard]] bool alive(std::size_t id) const { return links_[id].t != nullptr; }

  void quarantine(std::uint64_t id, std::uint64_t round, SessionPhase phase,
                  QuarantineReason reason);

  /// Sends with this link's next outbound sequence number. A dead channel
  /// quarantines the client (kDisconnect) and returns false.
  bool send(std::size_t id, Frame frame, std::uint64_t round, SessionPhase phase);

  /// Receives one frame of the expected type under the phase deadline,
  /// enforcing the monotonic-sequence rule (a replayed frame is a typed
  /// quarantine, never a silent duplicate). Any failure quarantines the
  /// client and returns nullopt.
  std::optional<Frame> recv(std::size_t id, MsgType want,
                            std::chrono::milliseconds deadline, std::uint64_t round,
                            SessionPhase phase);

  /// Shutdown drain with a deadline (the zombie guard): frames are read and
  /// discarded — sequence rules no longer matter, the session is over —
  /// until the peer closes or the deadline expires.
  void shutdown_drain(std::size_t id, std::chrono::milliseconds deadline);

 private:
  struct LiveLink {
    std::shared_ptr<Transport> t;
    std::uint16_t send_seq = 0;
    std::uint16_t recv_seq = 0;
  };

  std::vector<LiveLink> links_;
  std::vector<QuarantineRecord>& quarantined_;
  std::uint64_t id_base_ = 0;
};

/// Geometry of one round's selectively encrypted updates (wire v3,
/// kModelUpdateSparse), derived identically on every endpoint from data
/// they already share: the global weights broadcast in kModelDown, the
/// session's SecureConfig, and the cohort size N. Zero mask bytes cross
/// the wire, all clients' packed ciphertext slots line up for homomorphic
/// addition, and the server can reject an upload whose bitmap disagrees.
struct SparseUpdatePlan {
  std::size_t n = 0;                     // total coordinates
  std::size_t k = 0;                     // encrypted coordinates
  std::vector<std::uint32_t> mask;       // encrypted indices, ascending
  std::vector<std::uint32_t> plain_idx;  // the complement, ascending
  std::vector<std::uint8_t> bitmap;
  he::PackedCodec codec{1, 1};
};

SparseUpdatePlan sparse_plan(std::span<const float> global, const core::SecureConfig& sc,
                             std::size_t num_clients);

/// Both execution modes run the §5.3.1 determination through the single
/// authoritative core::multi_time_select loop (only the selection and
/// aggregation steps differ); this just copies its outcome into the record.
void fill_from_outcome(RoundRecord& r, core::MultiTimeOutcome&& mt);

void check_session_params(const SessionParams& params, std::size_t N);

/// One slice of the cohort as a request handler: a wire v5 root→shard
/// request in, the partial the root awaits out. serve_shard feeds it from
/// its uplink; the flat aggregator's root calls it directly. The slice owns
/// the client-facing protocol — every frame a client sees (payload and
/// per-link sequence number) is the one a flat aggregator would send it —
/// and quarantines client failures locally, in global client ids, flushing
/// the records into the next partial. A request the root could never
/// legitimately send (out of order, foreign or repeated client ids, a try
/// index >= H) throws: the root is infrastructure, not churn.
class ShardSlice {
 public:
  /// `client_links` must outlive the slice; their count must equal
  /// shard_range(total_clients, num_shards, shard_id).count.
  ShardSlice(std::span<const std::shared_ptr<Transport>> client_links,
             std::uint32_t shard_id, std::uint32_t num_shards, std::size_t total_clients,
             const SessionParams& params);
  ShardSlice(const ShardSlice&) = delete;
  ShardSlice& operator=(const ShardSlice&) = delete;

  /// Serves kServerHello (binds the clients; no reply), kKeyMaterial
  /// (→ kPartialRegistry), kRegistryBroadcast (→ setup flush),
  /// kShardRoundBegin (→ kPartialParticipation), kShardTryBegin
  /// (→ kPartialPopulation), kShardUpdateBegin (→ kPartialUpdate) and
  /// kShutdown (→ drain flush): issue() then collect().
  std::optional<Frame> handle(const Frame& from_root);

  /// The two halves of handle(). issue() starts serving a request; for
  /// kShardTryBegin that is only the distribution requests going out, so
  /// the root can score the previous try while the clients answer.
  /// collect() finishes it (for a try: the uploads in, the partial out) and
  /// returns the reply, if the request has one. A second issue() before the
  /// first request's reply was collected throws.
  void issue(const Frame& from_root);
  std::optional<Frame> collect();

  [[nodiscard]] const ShardRange& range() const { return range_; }

 private:
  void hello(const Frame& f);
  Frame registration(const Frame& f);
  Frame broadcast(const Frame& f);
  Frame round_begin(const Frame& f);
  void try_issue(const Frame& f);
  Frame try_collect();
  Frame update_begin(const Frame& f);
  Frame drain();

  /// The one validation of an encrypted upload (registry or distribution):
  /// packed form, session key, shape. A failure quarantines the client.
  std::optional<he::PackedEncryptedVector> accept_upload(std::size_t id, const Frame& up,
                                                         std::size_t want_logical,
                                                         std::uint64_t round,
                                                         SessionPhase phase);
  /// Throws unless every id is owned by this slice and named at most once.
  void check_members(std::span<const std::uint64_t> ids) const;
  /// Throws unless `round` is the round begun last.
  void require_round(std::uint64_t round) const;
  /// The request order the root follows: hello, keys, broadcast, rounds,
  /// shutdown. Throws unless the slice is at `want`, then moves to `next`.
  enum class Stage { kFresh, kBound, kKeyed, kLive, kDone };
  void advance(Stage want, Stage next);
  /// The quarantine records not yet shipped in a partial.
  std::vector<QuarantineRecord> flush();
  [[nodiscard]] std::uint64_t global_id(std::size_t local) const {
    return range_.first + local;
  }

  std::span<const std::shared_ptr<Transport>> client_links_;
  std::uint32_t shard_id_;
  std::size_t total_;
  ShardRange range_;
  const SessionParams& params_;
  core::RegistryCodec codec_;
  he::PackedCodec session_packed_;
  std::vector<QuarantineRecord> records_;
  std::size_t flushed_ = 0;
  ServerCohort cohort_;
  Stage stage_ = Stage::kFresh;
  std::uint64_t session_seed_ = 0;
  he::PublicKey session_key_;
  std::optional<std::uint64_t> round_;  // the round begun last
  /// Between issue() and collect(): the finished reply of any request but
  /// kShardTryBegin, or the try whose requests are out.
  std::optional<Frame> reply_;
  std::optional<PartialPopulation> try_;
  std::vector<std::uint64_t> try_members_;
};

/// Whom the aggregator's links lead to: the clients themselves (a flat
/// session — the root drives one in-process ShardSlice over them) or shard
/// aggregators (a tree session — each link is a serve_shard uplink).
enum class Downlinks { kClients, kShards };

/// The aggregator phase machine behind run_server_session and
/// run_root_session: registration, R rounds of participation, multi-time
/// determination and FedAvg, then the drain — against shard partials. A
/// session-local accountant sits on `links` (client links when flat, shard
/// uplinks in a tree) and is merged into `channel` at the end.
SessionTranscript run_aggregator(std::span<const std::shared_ptr<Transport>> links,
                                 Downlinks downlinks, const data::FederatedDataset& dataset,
                                 const nn::Sequential& prototype, const SessionParams& params,
                                 fl::ChannelAccountant* channel);

/// The in-process harness behind every run_*_session convenience overload.
struct Harness {
  /// Client `id`'s end of its link, obtained on that client's thread (a
  /// ready loopback end, or a fresh TCP connection).
  std::function<std::shared_ptr<Transport>(std::size_t id)> client_link;
  /// One thread each (the tree's shard aggregators). A body that fails
  /// closes its own links before rethrowing.
  std::vector<std::function<void()>> shards;
  /// The aggregator, run on the calling thread.
  std::function<SessionTranscript()> drive;
  /// Unblocks every thread after `drive` threw (closes links, stops servers).
  std::function<void()> abort;
};

/// Runs `h` with one serve_client thread per dataset client — behind a
/// FaultyTransport where `plans[id]` is enabled — and the error discipline
/// every harness shares: each thread traps its exception and closes its
/// link, the aggregator's failure aborts and joins before rethrowing, and after
/// a clean drive the first shard error, then the first honest client's, is
/// rethrown. A faulty client's death is expected and swallowed (its
/// quarantine record is the observable outcome), and its endpoint is closed
/// once the aggregator returns, so a straggle longer than the session ends
/// with it. `plans` is empty or has one plan per client; `who` names the
/// caller in errors.
SessionTranscript run_harness(const char* who, const data::FederatedDataset& dataset,
                              const nn::Sequential& prototype, const SessionParams& params,
                              std::span<const FaultPlan> plans, const Harness& h);

}  // namespace dubhe::net::detail

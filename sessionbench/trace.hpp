#pragma once

// Out-of-band observation of a session from the benchmark's side of the
// net::Transport interface: nothing here touches the library's internals.
//
//   RoundStampLink  the only decorator of a timed run: sits on client 0's
//                   link and stamps the arrival of round-boundary frames
//                   (kRoundBegin, kShutdown).
//   TracedLink      the traced run's decorator on every link: one span per
//                   send/receive, tagged with the frame type, plus the
//                   per-frame facts attribution needs (bytes, round, try).
//   Tracer          an in-memory span store, written out as Chrome trace
//                   JSON (loads in Perfetto) when the benchmark ends.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace sessionbench {

/// Seconds on the steady clock since the process started measuring.
double now_s();
/// User + system CPU seconds of the whole process.
double process_cpu_s();

/// Which side of which link a decorator sits on.
enum class LinkRole : std::uint8_t {
  kAggregator,  // flat server's client links, or the root's shard links
  kShardDown,   // a shard aggregator's client links (tree only)
  kShardUp,     // a shard aggregator's link to the root (tree only)
  kClient,      // a client's link to its aggregator
};

/// One send or receive that completed on a traced link.
struct LinkEvent {
  std::uint64_t session = 0;
  int link = 0;  // unique per session
  LinkRole role = LinkRole::kClient;
  bool send = false;
  dubhe::net::MsgType type = dubhe::net::MsgType::kShutdown;
  double start = 0, end = 0;
  std::size_t bytes = 0;  // exact encoded frame size
  /// Round of the last round-begin frame seen on this link (-1 in setup).
  std::int64_t round = -1;
  /// Tentative try h of the last distribution request seen on this link.
  std::int64_t try_index = -1;
};

struct Span {
  std::string name;
  std::uint64_t session = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  int track = 0;
  double start = 0, end = 0;
};

class Tracer {
 public:
  /// Opens a span on the calling thread's track under its current parent.
  std::int64_t open(std::string name);
  void close(std::int64_t id);
  /// Records a finished span on an explicit session, track and parent.
  void add(std::string name, std::uint64_t session, int track, std::int64_t parent,
           double start, double end);
  /// Id of the first span named `name` in `session`, or -1.
  [[nodiscard]] std::int64_t find(const std::string& name, std::uint64_t session) const;

  void record(const LinkEvent& ev, const dubhe::net::Frame* keep);

  [[nodiscard]] std::vector<LinkEvent> events() const;
  /// The largest frame of each type seen on an aggregator-side link.
  [[nodiscard]] std::map<dubhe::net::MsgType, dubhe::net::Frame> frames() const;

  /// Chrome trace-event JSON ("X" events, microseconds; args carry span
  /// id, parent id and session id).
  void write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<LinkEvent> events_;
  std::map<dubhe::net::MsgType, dubhe::net::Frame> frames_;
};

/// Binds the calling thread to a session and a track for as long as it
/// lives, and opens the span that parents every span the thread records.
class ThreadScope {
 public:
  ThreadScope(Tracer* tracer, std::uint64_t session, int track, std::string name);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t span_ = -1;
  std::uint64_t prev_session_;
  int prev_track_;
  std::int64_t prev_parent_;
};

/// A span around one call on the calling thread (no-op without a tracer).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t span_ = -1;
  std::int64_t prev_parent_;
};

/// Client 0's round clock: arrival times of every kRoundBegin and of the
/// final kShutdown, and the process CPU time at the first kRoundBegin.
struct RoundClock {
  std::vector<double> arrivals;
  double cpu_at_first_round = 0;
};

class RoundStampLink final : public dubhe::net::Transport {
 public:
  RoundStampLink(std::shared_ptr<dubhe::net::Transport> inner, RoundClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void send(const dubhe::net::Frame& frame) override { inner_->send(frame); }
  std::optional<dubhe::net::Frame> receive(std::chrono::milliseconds deadline) override;
  using Transport::receive;
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_name() const override { return inner_->peer_name(); }

 private:
  std::shared_ptr<dubhe::net::Transport> inner_;
  RoundClock& clock_;
};

class TracedLink final : public dubhe::net::Transport {
 public:
  TracedLink(std::shared_ptr<dubhe::net::Transport> inner, Tracer& tracer, LinkRole role,
             std::uint64_t session, int link)
      : inner_(std::move(inner)), tracer_(tracer), role_(role), session_(session),
        link_(link) {}

  /// Accounting that a session entry point attaches to this decorator is
  /// recorded here, at the exact encoded size, as the real transports do.
  void send(const dubhe::net::Frame& frame) override;
  std::optional<dubhe::net::Frame> receive(std::chrono::milliseconds deadline) override;
  using Transport::receive;
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_name() const override { return inner_->peer_name(); }

 private:
  void note(const dubhe::net::Frame& frame, bool send, double start, double end);

  std::shared_ptr<dubhe::net::Transport> inner_;
  Tracer& tracer_;
  LinkRole role_;
  std::uint64_t session_;
  int link_;
  std::int64_t round_ = -1;  // touched only by the link's one user thread
  std::int64_t try_ = -1;
};

}  // namespace sessionbench

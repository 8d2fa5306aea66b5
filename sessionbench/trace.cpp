#include "trace.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "net/codec.hpp"

namespace sessionbench {

namespace net = dubhe::net;

namespace {

thread_local std::uint64_t t_session = 0;
thread_local int t_track = 0;
thread_local std::int64_t t_parent = -1;

const auto kEpoch = std::chrono::steady_clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kEpoch).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t Tracer::open(std::string name) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({std::move(name), t_session, id, t_parent, t_track, start, start});
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = end;
}

void Tracer::add(std::string name, std::uint64_t session, int track, std::int64_t parent,
                 double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({std::move(name), session, id, parent, track, start, end});
}

std::int64_t Tracer::find(const std::string& name, std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.session == session && s.name == name) return s.id;
  }
  return -1;
}

void Tracer::record(const LinkEvent& ev, const net::Frame* keep) {
  const char* dir = ev.send ? "send:" : "recv:";
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(
      {dir + net::to_string(ev.type), t_session, id, t_parent, t_track, ev.start, ev.end});
  events_.push_back(ev);
  if (keep != nullptr) {
    auto it = frames_.find(keep->type);
    if (it == frames_.end()) {
      frames_.emplace(keep->type, *keep);
    } else if (keep->payload.size() > it->second.payload.size()) {
      it->second = *keep;
    }
  }
}

std::vector<LinkEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::map<net::MsgType, net::Frame> Tracer::frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f,\"pid\":%llu,\"tid\":%d", s.start * 1e6,
                  (s.end - s.start) * 1e6, static_cast<unsigned long long>(s.session),
                  s.track);
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",\"ts\":" << buf
        << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"session\":" << s.session << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

ThreadScope::ThreadScope(Tracer* tracer, std::uint64_t session, int track, std::string name)
    : tracer_(tracer), prev_session_(t_session), prev_track_(t_track),
      prev_parent_(t_parent) {
  t_session = session;
  t_track = track;
  t_parent = -1;
  if (tracer_ != nullptr) {
    span_ = tracer_->open(std::move(name));
    t_parent = span_;
  }
}

ThreadScope::~ThreadScope() {
  if (tracer_ != nullptr) tracer_->close(span_);
  t_session = prev_session_;
  t_track = prev_track_;
  t_parent = prev_parent_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name)
    : tracer_(tracer), prev_parent_(t_parent) {
  if (tracer_ != nullptr) {
    span_ = tracer_->open(std::move(name));
    t_parent = span_;
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->close(span_);
  t_parent = prev_parent_;
}

std::optional<net::Frame> RoundStampLink::receive(std::chrono::milliseconds deadline) {
  auto frame = inner_->receive(deadline);
  if (frame && (frame->type == net::MsgType::kRoundBegin ||
                frame->type == net::MsgType::kShutdown)) {
    const double t = now_s();
    if (clock_.arrivals.empty()) clock_.cpu_at_first_round = process_cpu_s();
    clock_.arrivals.push_back(t);
  }
  return frame;
}

void TracedLink::send(const net::Frame& frame) {
  const double start = now_s();
  inner_->send(frame);
  const double end = now_s();
  account_sent(frame, net::frame_wire_size(frame.payload.size()));
  note(frame, true, start, end);
}

std::optional<net::Frame> TracedLink::receive(std::chrono::milliseconds deadline) {
  const double start = now_s();
  auto frame = inner_->receive(deadline);
  const double end = now_s();
  if (frame) {
    account_received(*frame, net::frame_wire_size(frame->payload.size()));
    note(*frame, false, start, end);
  }
  return frame;
}

void TracedLink::note(const net::Frame& frame, bool send, double start, double end) {
  switch (frame.type) {
    case net::MsgType::kRoundBegin:
      round_ = static_cast<std::int64_t>(net::parse_round_begin(frame).round);
      break;
    case net::MsgType::kShardRoundBegin:
      round_ = static_cast<std::int64_t>(net::parse_shard_round_begin(frame).round);
      break;
    case net::MsgType::kDistributionRequest:
      try_ = net::parse_seed_request(frame, net::MsgType::kDistributionRequest).tag;
      break;
    case net::MsgType::kShardTryBegin:
      try_ = net::parse_shard_try_begin(frame).try_index;
      break;
    default:
      break;
  }
  LinkEvent ev;
  ev.session = session_;
  ev.link = link_;
  ev.role = role_;
  ev.send = send;
  ev.type = frame.type;
  ev.start = start;
  ev.end = end;
  ev.bytes = net::frame_wire_size(frame.payload.size());
  ev.round = round_;
  ev.try_index = try_;
  const bool aggregator_side = role_ == LinkRole::kAggregator || role_ == LinkRole::kShardDown;
  tracer_.record(ev, aggregator_side ? &frame : nullptr);
}

}  // namespace sessionbench

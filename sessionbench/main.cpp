// Secure-session benchmark binary. One invocation runs one workload:
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It runs full 2048-bit sessions over loopback TCP until `seconds` have
// passed, then runs the direct reference session (net::run_session_direct)
// at the same seed and key size, outside every timed region, and checks
// each session's transcript and final weights against it. It prints one
// record line (host fingerprint, every metric with its sample count)
// followed by the result line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced sessions and reports the per-layer attribution. Any failed
// session (a throw, a quarantine record, a transcript or weight mismatch)
// makes the exit code 1.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attribution.hpp"
#include "core/cpu.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "sessions.hpp"
#include "tensor/simd.hpp"

namespace net = dubhe::net;
using namespace sessionbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t key_bits = 2048;
  std::size_t rounds = 0;  // 0 = the workload's own
  std::size_t min_sessions = 3;
  bool corrupt_transcript = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "session_bench: " << why << "\n"
            << "usage: session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
            << "       [--key-bits <bits>] [--rounds <R>] [--min-sessions <n>]\n"
            << "       [--trace-out <file.json>] [--git-sha <sha>] [--source-digest <hex>]\n"
            << "       [--corrupt-transcript]\n"
            << "workloads:";
  for (const auto& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return x;
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": " + v);
  }
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-transcript") {
      o.corrupt_transcript = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(a, v));
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--key-bits") {
      o.key_bits = parse_u64(a, v);
    } else if (a == "--rounds") {
      o.rounds = parse_u64(a, v);
    } else if (a == "--min-sessions") {
      o.min_sessions = std::max<std::size_t>(1, parse_u64(a, v));
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Linear-interpolation percentile (numpy's default).
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(x) ? x : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Keeps what the correctness gate compares (formatted transcript, final
/// weights) and drops the per-round weight vectors.
void seal(SessionRun& run) {
  run.transcript_text = net::format_transcript(run.transcript);
  run.final_weights = run.transcript.rounds.back().global_weights;
  for (auto& rec : run.transcript.rounds) std::vector<float>().swap(rec.global_weights);
}

/// Empty when `run` reproduces the reference transcript and final weights;
/// otherwise why it does not.
std::string mismatch(const SessionRun& run, const SessionRun& ref) {
  if (!run.transcript.quarantined.empty()) return "the session recorded a quarantine";
  if (run.transcript_text != ref.transcript_text) return "transcript differs from the reference";
  const std::vector<float>& w = run.final_weights;
  if (w.size() != ref.final_weights.size() ||
      std::memcmp(w.data(), ref.final_weights.data(), w.size() * sizeof(float)) != 0) {
    return "final weights differ from the reference";
  }
  return "";
}

std::string fingerprint_json(const Options& o) {
  std::string tcp_backend;
  {
    net::TcpServer probe(0, 1);
    tcp_backend = probe.backend_name();
  }
  std::ostringstream s;
  s << "{\"cpu_features\":" << quote(dubhe::core::cpu::feature_string())
    << ",\"gemm\":" << quote(dubhe::tensor::simd_backend_name())
    << ",\"crc32\":" << quote(net::crc32_backend_name()) << ",\"poller\":" << quote(tcp_backend)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"compiler\":" << quote(SESSIONBENCH_COMPILER)
    << ",\"build_type\":" << quote(SESSIONBENCH_BUILD_TYPE) << ",\"key_bits\":" << o.key_bits
    << ",\"git_sha\":" << quote(o.git_sha) << ",\"source_digest\":" << quote(o.source_digest)
    << "}";
  return s.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Round latencies of one session: gaps between client 0's consecutive
/// round-boundary arrivals.
std::vector<double> round_latencies(const SessionRun& run) {
  std::vector<double> out;
  for (std::size_t i = 1; i < run.clock.arrivals.size(); ++i) {
    out.push_back(run.clock.arrivals[i] - run.clock.arrivals[i - 1]);
  }
  return out;
}

std::vector<double> all_rounds(const std::vector<SessionRun>& runs) {
  std::vector<double> out;
  for (const SessionRun& r : runs) {
    const auto lat = round_latencies(r);
    out.insert(out.end(), lat.begin(), lat.end());
  }
  return out;
}

struct Tail {
  double percentile = 50;
  std::size_t beyond = 0;
  double value = 0;
};

/// The highest percentile of a fixed ladder with at least ten rounds beyond
/// it. The choice is made on the rounds every run is guaranteed to measure
/// (`guaranteed`), so runs that happen to fit one more session still
/// report the same percentile.
Tail round_tail(const std::vector<double>& rounds, std::size_t guaranteed) {
  Tail t;
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(guaranteed) * (1.0 - p / 100.0)));
    if (beyond >= 10 || p == 50.0) {
      t.percentile = p;
      break;
    }
  }
  t.beyond = static_cast<std::size_t>(
      std::floor(static_cast<double>(rounds.size()) * (1.0 - t.percentile / 100.0)));
  t.value = rounds.empty() ? 0 : percentile(rounds, t.percentile);
  return t;
}

std::vector<Metric> end_to_end(const std::vector<SessionRun>& runs, std::size_t R,
                               std::size_t min_sessions, double rss_mb, Tail& tail) {
  std::vector<double> setup, session, cpu, wire, setup_wire;
  for (const SessionRun& r : runs) {
    setup.push_back(r.clock.arrivals.front() - r.call);
    session.push_back(r.end - r.harness_start);
    cpu.push_back((r.cpu_end - r.clock.cpu_at_first_round) / static_cast<double>(R));
    wire.push_back(static_cast<double>(r.wire_bytes - r.setup_bytes) / static_cast<double>(R));
    setup_wire.push_back(static_cast<double>(r.setup_bytes));
  }
  const std::vector<double> rounds = all_rounds(runs);
  tail = round_tail(rounds, min_sessions * R);
  const std::size_t n = runs.size();
  return {
      {"setup_s", median(setup), "s", n},
      {"round_s_p50", median(rounds), "s", rounds.size()},
      {"round_s_tail", tail.value, "s", rounds.size()},
      {"session_s", median(session), "s", n},
      {"cpu_s_per_round", median(cpu), "s", n},
      {"wire_bytes_per_round", median(wire), "B", n},
      {"setup_wire_bytes", median(setup_wire), "B", n},
      {"peak_rss_mb", rss_mb, "MB", 1},
  };
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    out += quote(m.name) + ":{\"value\":" + num(m.value) + ",\"unit\":" + quote(m.unit);
    if (with_samples) out += ",\"samples\":" + std::to_string(m.samples);
    out += "}";
    if (i + 1 < ms.size()) out += ",";
  }
  return out + "}";
}

const Metric& get(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m;
  }
  throw std::logic_error("no metric " + name);
}

/// Whether the traced run shows the workload stressing what it exists for
/// (see README.md). Reported, not gated: a later change may legitimately
/// move a workload's bottleneck.
std::string stress_checks(const std::string& workload, const std::vector<Metric>& layer) {
  const auto v = [&](const char* n) { return get(layer, n).value; };
  std::ostringstream s;
  if (workload == "flat_small") {
    const double crypto = v("paillier.encrypt_s") + v("paillier.decrypt_s");
    const bool largest = v("session.distribution_s") >
                             std::max({v("session.participation_s"), v("session.update_s"),
                                       v("session.merge_s")}) &&
                         crypto > std::max({v("train.client_round_s"), v("fedavg_s"),
                                            v("codec.encode_s") + v("codec.decode_s")});
    s << "{\"distribution_crypto_is_largest_share\":" << (largest ? "true" : "false") << "}";
  } else if (workload == "tree_he") {
    const bool largest = v("client.update_s") > std::max({v("client.distribution_upload_s"),
                                                          v("client.registry_upload_s"),
                                                          v("client.broadcast_decrypt_s")});
    s << "{\"update_encryption_is_largest_client_phase\":" << (largest ? "true" : "false")
      << "}";
  } else {
    const bool largest = v("client.update_s") > std::max({v("session.participation_s"),
                                                          v("session.distribution_s"),
                                                          v("session.merge_s")});
    s << "{\"client_update_is_largest_share\":" << (largest ? "true" : "false") << "}";
  }
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) usage("unknown workload " + opt.workload);
  Workload work = *w;
  if (opt.rounds > 0) work.rounds = opt.rounds;

  try {
    const Instance in(work, opt.seed, opt.key_bits);
    const std::size_t R = in.params.rounds;

    Tracer tracer;
    std::vector<SessionRun> timed, traced;
    std::size_t attempted = 0, failed = 0;
    const auto run_one = [&](bool with_trace) {
      ++attempted;
      try {
        SessionRun run = run_session(in, with_trace ? &tracer : nullptr,
                                     with_trace ? traced.size() + 1 : 0);
        if (opt.corrupt_transcript) {
          float& x = run.transcript.rounds.back().global_weights.front();
          x = std::nextafter(x, 1e30f);
        }
        seal(run);
        if (run.clock.arrivals.size() != R + 1) {
          throw std::runtime_error("client 0 saw " + std::to_string(run.clock.arrivals.size()) +
                                   " round boundaries, expected " + std::to_string(R + 1));
        }
        const std::vector<double> lat = round_latencies(run);
        std::cerr << (with_trace ? "traced" : "timed") << " session " << attempted
                  << ": setup " << num(run.clock.arrivals.front() - run.call) << " s, round p50 "
                  << num(median(lat)) << " s, session " << num(run.end - run.harness_start)
                  << " s\n";
        (with_trace ? traced : timed).push_back(std::move(run));
      } catch (const std::exception& e) {
        ++failed;
        std::cerr << "session " << attempted << " threw: " << e.what() << "\n";
      }
    };

    // A timed run measures at least min_sessions sessions; a traced run
    // alternates untraced and traced sessions, at least one pair.
    const std::size_t min_sessions = opt.trace ? 1 : opt.min_sessions;
    const double start = now_s();
    do {
      run_one(false);
      if (opt.trace && failed == 0) run_one(true);
    } while (failed == 0 && (now_s() - start < opt.seconds || timed.size() < min_sessions));
    const double measured = now_s() - start;
    const double rss_mb = peak_rss_mb();

    // Correctness gate: the direct reference path, after and outside every
    // timed region. The two parallelism knobs only shard the reference's
    // own loops (transcripts are identical for any value), which keeps the
    // gate affordable.
    {
      dubhe::net::SessionParams p = in.params;
      p.train_threads = std::max(1u, std::thread::hardware_concurrency());
      p.secure.encrypt_threads = p.train_threads;
      const double t0 = now_s();
      SessionRun ref;
      ref.transcript = net::run_session_direct(in.dataset, in.prototype, p);
      seal(ref);
      std::cerr << "reference session: " << num(now_s() - t0) << " s\n";
      for (const auto* runs : {&timed, &traced}) {
        for (std::size_t i = 0; i < runs->size(); ++i) {
          const std::string why = mismatch((*runs)[i], ref);
          if (!why.empty()) {
            ++failed;
            std::cerr << (runs == &timed ? "timed" : "traced") << " session " << i + 1
                      << " failed: " << why << "\n";
          }
        }
      }
    }

    Tail tail;
    std::vector<Metric> e2e, layer;
    std::string checks = "{}";
    if (failed == 0) {
      e2e = end_to_end(timed, R, min_sessions, rss_mb, tail);
      if (opt.trace) {
        const double untraced_p50 = get(e2e, "round_s_p50").value;
        const double traced_p50 = median(all_rounds(traced));
        layer = attribute(in, tracer, traced, untraced_p50, traced_p50);
        checks = stress_checks(work.name, layer);
        if (!opt.trace_out.empty()) tracer.write_chrome_json(opt.trace_out);
      }
    }

    std::vector<Metric> record = e2e;
    record.push_back({"failed_frac", static_cast<double>(failed) / static_cast<double>(attempted),
                      "ratio", attempted});
    record.insert(record.end(), layer.begin(), layer.end());
    std::cout << "{\"record\":\"sessionbench\",\"workload\":" << quote(work.name)
              << ",\"seed\":" << opt.seed << ",\"rounds_per_session\":" << R
              << ",\"measured_s\":" << num(measured) << ",\"fingerprint\":" << fingerprint_json(opt)
              << ",\"round_s_tail_percentile\":" << num(tail.percentile)
              << ",\"round_s_tail_rounds_beyond\":" << tail.beyond
              << ",\"sessions_timed\":" << timed.size() << ",\"sessions_traced\":" << traced.size()
              << ",\"checks\":" << checks << ",\"metrics\":" << metrics_json(record, true)
              << "}\n";
    const bool correct = failed == 0;
    std::cout << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
              << ",\"failed\":" << failed
              << ",\"metrics\":" << metrics_json(opt.trace ? layer : e2e, false) << "}"
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "session_bench: " << e.what() << "\n";
    return 1;
  }
}

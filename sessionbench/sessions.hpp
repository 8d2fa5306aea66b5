#pragma once

// The three workloads and the session runner. A session always runs over
// real loopback TCP: the benchmark owns the TcpServer / TcpTransport links
// and calls only the public session entry points (net::run_server_session
// + net::serve_client for a flat aggregator; net::run_root_session +
// net::serve_shard + net::serve_client for the 2-level tree), with every
// client as a thread of this process.

#include <cstdint>
#include <string>
#include <vector>

#include "data/federated.hpp"
#include "net/node.hpp"
#include "nn/sequential.hpp"
#include "trace.hpp"

namespace sessionbench {

struct Workload {
  std::string name;
  bool femnist = false;  // femnist-like data (52 classes) instead of mnist-like
  std::size_t samples_per_client = 0;
  double rho = 1, emd_avg = 0;
  std::size_t hidden = 0;  // MLP hidden width
  std::vector<std::size_t> reference_set;
  std::vector<double> sigma;
  dubhe::fl::TrainConfig train;
  std::size_t clients = 4, K = 2, H = 3, rounds = 1;
  double update_he_rate = 0;
  std::size_t shards = 0;  // 0 = flat aggregator, else a 2-level tree
};

/// The named workloads; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// A workload made concrete by the seed: the seed sets the partition,
/// he_seed, select_seed and round_seed.
struct Instance {
  Instance(const Workload& w, std::uint64_t seed, std::size_t key_bits);

  Workload workload;
  std::uint64_t seed;
  dubhe::data::FederatedDataset dataset;
  dubhe::nn::Sequential prototype;
  dubhe::net::SessionParams params;
};

/// What one session left behind.
struct SessionRun {
  /// The aggregator's transcript. The benchmark keeps only what it checks:
  /// the formatted text and the final weights (below), and drops every
  /// round's weight vector so kept sessions do not grow the peak RSS.
  dubhe::net::SessionTranscript transcript;
  std::string transcript_text;
  std::vector<float> final_weights;
  double harness_start = 0;  // before the listeners open and clients connect
  double call = 0;           // the call into the aggregator's session entry
  double call_return = 0;
  double end = 0;            // every thread joined
  RoundClock clock;          // client 0's round boundaries
  double cpu_end = 0;
  std::uint64_t wire_bytes = 0;   // every byte on every link of the session
  std::uint64_t setup_bytes = 0;  // of which before round 0
};

/// Runs one session of `in` over loopback TCP. With a tracer, every link is
/// a TracedLink and each thread records its entry-call span under
/// `session_id`; without one, only client 0's link is decorated (round
/// stamps). Throws whatever the session or an endpoint threw.
SessionRun run_session(const Instance& in, Tracer* tracer, std::uint64_t session_id);

}  // namespace sessionbench

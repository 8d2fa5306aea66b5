#pragma once

// Per-layer attribution of a traced run: phase and endpoint timings from the
// link spans, ciphertext and frame counts from the frames the links saw, and
// per-operation costs from a replay of the public layer calls at the
// workload's exact shapes (per-op time x per-round count).

#include <string>
#include <vector>

#include "sessions.hpp"
#include "trace.hpp"

namespace sessionbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  // how many measurements the value summarizes
};

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// `traced` are the traced sessions (session ids 1..traced.size(), in
/// order); `untraced_round_p50` / `traced_round_p50` give the tracing
/// overhead. Adds phase and replay spans to `tracer`.
std::vector<Metric> attribute(const Instance& in, Tracer& tracer,
                              const std::vector<SessionRun>& traced,
                              double untraced_round_p50, double traced_round_p50);

}  // namespace sessionbench

#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/selection.hpp"

namespace dubhe::core {

/// Result of an H-time tentative selection (paper §5.3).
struct MultiTimeOutcome {
  /// The determined participant set S_{h*}.
  std::vector<std::size_t> selected;
  /// EMD* = || p_{o,h*} - p_u ||_1 of the winning try.
  double emd_star = 0;
  std::size_t best_try = 0;
  /// || p_{o,h} - p_u ||_1 for every try, in order.
  std::vector<double> try_emds;
  /// Population distribution of the winning try.
  stats::Distribution population;
};

/// Runs H tentative selections with `strategy`, scores each try's population
/// distribution p_{o,h} against uniform, and keeps the argmin (client
/// determination, §5.3.1). In the secure deployment p_{o,h} reaches the
/// agent only as a Paillier aggregate (see SecureSelectionSession); here the
/// aggregation is plaintext but numerically identical. H = 1 degenerates to
/// a single one-off selection.
MultiTimeOutcome multi_time_select(SelectionStrategy& strategy,
                                   std::span<const stats::Distribution> client_dists,
                                   std::size_t K, std::size_t H, stats::Rng& rng);

/// The determination loop as four per-try steps — the single authoritative
/// copy of the §5.3.1 argmin rule (first-minimum tie-break included). The
/// secure paths (in-process session, flat and tree aggregators) supply
/// their Paillier reduction here, so the plaintext, direct-secure and wire
/// executions cannot drift apart.
///
/// A try's selection never reads an earlier try's aggregate, so the loop
/// overlaps try h's scoring with try h+1's round-trip:
///
///   select(0) issue(0) collect(0)
///   select(1) issue(1) finish(0) collect(1)
///   ...
///   select(H-1) issue(H-1) finish(H-2) collect(H-1) finish(H-1)
///
/// `select(h)` returns try h's participant set; `issue(h, sel)` starts its
/// aggregation (a wire driver sends its requests); `collect(h)` receives
/// and checks the contributions — a throw there ends the determination
/// before try h+1 is selected; `finish(h)` returns p_{o,h} with
/// `num_classes` entries.
struct TryPipeline {
  std::function<std::vector<std::size_t>(std::size_t)> select;
  std::function<void(std::size_t, std::span<const std::size_t>)> issue;
  std::function<void(std::size_t)> collect;
  std::function<stats::Distribution(std::size_t)> finish;
};
MultiTimeOutcome multi_time_select(std::size_t num_classes, std::size_t H,
                                   const TryPipeline& steps);

/// The serial form: `select(h)` then `aggregate(h, sel)` = p_{o,h}, one try
/// after the other (what the in-process reference path uses).
MultiTimeOutcome multi_time_select(
    std::size_t num_classes, std::size_t H,
    const std::function<std::vector<std::size_t>(std::size_t)>& select,
    const std::function<stats::Distribution(std::size_t, std::span<const std::size_t>)>&
        aggregate);

/// Population distribution of a selected set: mean of the members' label
/// distributions (all virtual clients carry equal sample counts).
stats::Distribution population_of(std::span<const stats::Distribution> client_dists,
                                  std::span<const std::size_t> selected);

}  // namespace dubhe::core

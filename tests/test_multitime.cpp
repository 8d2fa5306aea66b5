#include "core/multitime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/partition.hpp"

namespace dubhe::core {
namespace {

std::vector<stats::Distribution> make_cohort(std::size_t n, std::uint64_t seed = 5) {
  data::PartitionConfig cfg;
  cfg.num_classes = 10;
  cfg.num_clients = n;
  cfg.samples_per_client = 128;
  cfg.rho = 10;
  cfg.emd_avg = 1.5;
  cfg.seed = seed;
  return data::make_partition(cfg).client_dists;
}

TEST(PopulationOf, MeanOfMemberDistributions) {
  const auto dists = make_cohort(10);
  const std::vector<std::size_t> sel{0, 3, 7};
  const auto po = population_of(dists, sel);
  for (std::size_t c = 0; c < 10; ++c) {
    const double expect = (dists[0][c] + dists[3][c] + dists[7][c]) / 3.0;
    EXPECT_NEAR(po[c], expect, 1e-12);
  }
  EXPECT_THROW(population_of(dists, std::vector<std::size_t>{}), std::invalid_argument);
}

TEST(MultiTime, EmdStarIsMinimumOverTries) {
  const auto dists = make_cohort(200);
  RandomSelector sel(dists.size());
  stats::Rng rng(3);
  const MultiTimeOutcome out = multi_time_select(sel, dists, 20, 8, rng);
  EXPECT_EQ(out.try_emds.size(), 8u);
  EXPECT_DOUBLE_EQ(out.emd_star,
                   *std::min_element(out.try_emds.begin(), out.try_emds.end()));
  EXPECT_EQ(out.try_emds[out.best_try], out.emd_star);
  EXPECT_EQ(out.selected.size(), 20u);
  // Returned population must equal the winning try's recomputed population.
  const auto po = population_of(dists, out.selected);
  for (std::size_t c = 0; c < 10; ++c) EXPECT_NEAR(out.population[c], po[c], 1e-12);
  EXPECT_NEAR(out.emd_star, stats::l1_distance(po, stats::uniform(10)), 1e-12);
}

TEST(MultiTime, SingleTryDegeneratesToOneSelection) {
  const auto dists = make_cohort(100);
  RandomSelector sel(dists.size());
  stats::Rng rng_a(9), rng_b(9);
  const MultiTimeOutcome out = multi_time_select(sel, dists, 15, 1, rng_a);
  RandomSelector sel_b(dists.size());
  const auto direct = sel_b.select(15, rng_b);
  EXPECT_EQ(out.selected, direct);
  EXPECT_EQ(out.best_try, 0u);
}

TEST(MultiTime, MoreTriesNeverHurtInExpectation) {
  // E[min of H tries] is non-increasing in H; check the empirical means
  // with the same generator sequence (Table 2's trend).
  const auto dists = make_cohort(500, 11);
  RandomSelector sel(dists.size());
  const int reps = 60;
  double mean1 = 0, mean5 = 0, mean20 = 0;
  stats::Rng rng(13);
  for (int r = 0; r < reps; ++r) {
    mean1 += multi_time_select(sel, dists, 20, 1, rng).emd_star;
    mean5 += multi_time_select(sel, dists, 20, 5, rng).emd_star;
    mean20 += multi_time_select(sel, dists, 20, 20, rng).emd_star;
  }
  EXPECT_LT(mean5, mean1);
  EXPECT_LT(mean20, mean5);
}

TEST(MultiTime, ValidationErrors) {
  const auto dists = make_cohort(20);
  RandomSelector sel(dists.size());
  stats::Rng rng(1);
  EXPECT_THROW(multi_time_select(sel, dists, 5, 0, rng), std::invalid_argument);
  EXPECT_THROW(
      multi_time_select(sel, std::span<const stats::Distribution>{}, 5, 2, rng),
      std::invalid_argument);
}

TEST(MultiTime, WorksWithDubheSelector) {
  const auto dists = make_cohort(300, 17);
  const RegistryCodec codec(10, {1, 2, 10});
  DubheSelector dubhe(&codec, std::vector<double>{0.7, 0.1, 0.0});
  dubhe.register_clients(dists);
  stats::Rng rng(19);
  const MultiTimeOutcome h1 = multi_time_select(dubhe, dists, 20, 1, rng);
  const MultiTimeOutcome h10 = multi_time_select(dubhe, dists, 20, 10, rng);
  EXPECT_EQ(h10.selected.size(), 20u);
  EXPECT_LE(h10.emd_star, h1.emd_star + 0.2);  // overwhelmingly better or close
}

/// A pipeline over canned per-try populations that logs every call.
struct LoggedPipeline {
  std::vector<stats::Distribution> pops;
  std::vector<std::string> log;
  std::size_t throw_at_collect = SIZE_MAX;

  TryPipeline steps() {
    TryPipeline p;
    p.select = [this](std::size_t h) {
      log.push_back("select" + std::to_string(h));
      return std::vector<std::size_t>{h, h + 100};
    };
    p.issue = [this](std::size_t h, std::span<const std::size_t> sel) {
      EXPECT_EQ(sel.front(), h);
      log.push_back("issue" + std::to_string(h));
    };
    p.collect = [this](std::size_t h) {
      log.push_back("collect" + std::to_string(h));
      if (h == throw_at_collect) throw std::runtime_error("restart");
    };
    p.finish = [this](std::size_t h) {
      log.push_back("finish" + std::to_string(h));
      return pops[h];
    };
    return p;
  }
};

TEST(MultiTimePipeline, ScoresTryHAfterIssuingTryHPlusOne) {
  LoggedPipeline lp;
  lp.pops.assign(3, stats::uniform(4));
  const MultiTimeOutcome out = multi_time_select(4, 3, lp.steps());
  const std::vector<std::string> want{"select0", "issue0",  "collect0", "select1",
                                      "issue1",  "finish0", "collect1", "select2",
                                      "issue2",  "finish1", "collect2", "finish2"};
  EXPECT_EQ(lp.log, want);
  EXPECT_EQ(out.try_emds.size(), 3u);
  EXPECT_EQ(out.best_try, 0u);  // exact three-way tie: the first minimum wins
  EXPECT_EQ(out.selected, (std::vector<std::size_t>{0, 100}));
}

TEST(MultiTimePipeline, ThrowFromCollectStopsBeforeTheNextSelection) {
  LoggedPipeline lp;
  lp.pops.assign(3, stats::uniform(4));
  lp.throw_at_collect = 1;
  EXPECT_THROW((void)multi_time_select(4, 3, lp.steps()), std::runtime_error);
  const std::vector<std::string> want{"select0", "issue0", "collect0", "select1",
                                      "issue1",  "finish0", "collect1"};
  EXPECT_EQ(lp.log, want);
}

TEST(MultiTimePipeline, MatchesTheSerialLoopOnTiedEmdSequences) {
  // Per-try populations drawn from a pool of three, so exact EMD ties are
  // frequent: try_emds, best_try (first minimum) and the winning selection
  // must equal the serial select/aggregate form's on every sequence.
  const std::vector<stats::Distribution> pool{
      {0.25, 0.25, 0.25, 0.25}, {0.5, 0.5, 0.0, 0.0}, {0.4, 0.3, 0.2, 0.1}};
  stats::Rng rng(29);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t H = 1 + rng.below(6);
    std::vector<stats::Distribution> pops(H);
    for (auto& p : pops) p = pool[rng.below(pool.size())];
    const auto select = [](std::size_t h) { return std::vector<std::size_t>{h}; };

    LoggedPipeline lp;
    lp.pops = pops;
    const MultiTimeOutcome piped = multi_time_select(4, H, lp.steps());
    const MultiTimeOutcome serial = multi_time_select(
        4, H, select,
        [&](std::size_t h, std::span<const std::size_t> sel) {
          EXPECT_EQ(sel.front(), h);
          return pops[h];
        });
    SCOPED_TRACE(rep);
    EXPECT_EQ(piped.try_emds, serial.try_emds);
    EXPECT_EQ(piped.best_try, serial.best_try);
    EXPECT_EQ(piped.emd_star, serial.emd_star);
    EXPECT_EQ(piped.population, serial.population);
    EXPECT_EQ(piped.selected.front(), serial.selected.front());
    const auto first_min = static_cast<std::size_t>(
        std::min_element(serial.try_emds.begin(), serial.try_emds.end()) -
        serial.try_emds.begin());
    EXPECT_EQ(serial.best_try, first_min);
  }
}

}  // namespace
}  // namespace dubhe::core

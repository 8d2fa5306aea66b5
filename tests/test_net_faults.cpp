// The churn half of the net layer's acceptance contract: a client that
// misbehaves — silently, loudly, or maliciously — costs the cohort one
// participant, never the session. Each matrix row injects one scripted
// fault through net::FaultyTransport and asserts that (a) the session still
// completes every round, (b) the server produced exactly the typed
// quarantine record the fault maps to, and (c) the transcript (quarantine
// records included) is byte-identical across loopback and TCP, because
// faults trigger on frame content, never timing. An empty fault plan must
// leave the transcript byte-identical to the fault-free driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "net/fault.hpp"
#include "net/node.hpp"
#include "net/shard.hpp"
#include "nn/builders.hpp"

namespace dubhe {
namespace {

using net::FaultKind;
using net::FaultPlan;
using net::QuarantineReason;
using net::SessionPhase;

constexpr std::uint64_t kNoId = net::QuarantineRecord::kUnknownClient;
constexpr std::uint64_t kSetup = net::QuarantineRecord::kSetupRound;

data::FederatedDataset make_dataset(std::size_t num_clients) {
  data::PartitionConfig pc;
  pc.num_classes = 10;
  pc.num_clients = num_clients;
  pc.samples_per_client = 48;
  pc.rho = 8;
  pc.emd_avg = 1.4;
  pc.seed = 21;
  return {data::mnist_like(), pc};
}

net::SessionParams make_params(std::size_t K, std::size_t rounds = 2) {
  net::SessionParams p;
  p.secure.key_bits = 128;  // churn semantics are key-size independent
  p.K = K;
  p.H = 3;
  p.rounds = rounds;
  p.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
  p.evaluate = false;
  return p;
}

std::vector<FaultPlan> plan_for(std::size_t n, std::size_t id, const FaultPlan& plan) {
  std::vector<FaultPlan> plans(n);
  plans[id] = plan;
  return plans;
}

/// Runs one fault-plan spec on both transports and checks the session
/// survived with exactly the expected quarantine record. K == N so the
/// faulty client is deterministically selected whenever it is still alive.
void expect_quarantine(const char* spec, std::uint64_t client, std::uint64_t round,
                       SessionPhase phase, QuarantineReason reason,
                       const net::SessionParams& base_params) {
  SCOPED_TRACE(spec);
  const std::size_t N = 4;
  const std::size_t faulty = 1;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto plans = plan_for(N, faulty, net::parse_fault_plan(spec));

  const auto loop = net::run_loopback_session(dataset, proto, base_params, plans);
  const auto tcp = net::run_tcp_session(dataset, proto, base_params, plans, 1);

  // The whole point: churn transcripts are part of the deterministic
  // acceptance contract, quarantine records included.
  EXPECT_EQ(net::format_transcript(loop), net::format_transcript(tcp));

  // The session completed every round over the survivors.
  ASSERT_EQ(loop.rounds.size(), base_params.rounds);
  for (const auto& rec : loop.rounds) EXPECT_FALSE(rec.selected.empty());

  ASSERT_EQ(loop.quarantined.size(), 1u);
  const net::QuarantineRecord& q = loop.quarantined[0];
  EXPECT_EQ(q.client_id, client);
  EXPECT_EQ(q.round, round);
  EXPECT_EQ(q.phase, phase);
  EXPECT_EQ(q.reason, reason);

  // Per-round drop lists mirror the records: the faulty client appears in
  // the round it died in (if it died inside a round) and nowhere else.
  for (std::size_t r = 0; r < loop.rounds.size(); ++r) {
    if (round != kSetup && r == round) {
      EXPECT_EQ(loop.rounds[r].dropped, std::vector<std::uint64_t>{client});
    } else {
      EXPECT_TRUE(loop.rounds[r].dropped.empty()) << "round " << r;
    }
  }
}

TEST(NetFaults, DisconnectAtHelloQuarantinesUnknownClient) {
  // The link died before the hello bound an id: nothing to name, so the
  // record carries the kUnknownClient sentinel.
  expect_quarantine("disconnect@hello", kNoId, kSetup, SessionPhase::kHello,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, DisconnectAtRegistrationQuarantinesClient) {
  expect_quarantine("disconnect@registration", 1, kSetup, SessionPhase::kRegistration,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, DisconnectAtParticipationRoundOne) {
  // nth:1 fires on the second participation frame — the client survives
  // round 0 and dies in round 1, so round 0 is clean and round 1 proceeds
  // over the three survivors.
  expect_quarantine("disconnect@participation:1", 1, 1, SessionPhase::kParticipation,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, DisconnectAtUpdateReweightsOverArrivals) {
  expect_quarantine("disconnect@update", 1, 0, SessionPhase::kUpdate,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, CorruptRegistryUploadIsBadCiphertext) {
  // The flipped payload tag no longer reads as an encrypted vector: a
  // ciphertext that cannot join the homomorphic sum, not a framing error.
  expect_quarantine("corrupt@registration", 1, kSetup, SessionPhase::kRegistration,
                    QuarantineReason::kBadCiphertext, make_params(4));
}

TEST(NetFaults, CorruptParticipationIsBadParticipation) {
  // The flipped bit lands in the client-id field: the frame parses but the
  // volunteering is bound to the wrong client.
  expect_quarantine("corrupt@participation", 1, 0, SessionPhase::kParticipation,
                    QuarantineReason::kBadParticipation, make_params(4));
}

TEST(NetFaults, CorruptModelUpdateIsBadFrame) {
  // The flipped bit lands in the update's sender field — an out-of-protocol
  // frame, quarantined before it can touch the FedAvg merge.
  expect_quarantine("corrupt@update", 1, 0, SessionPhase::kUpdate,
                    QuarantineReason::kBadFrame, make_params(4));
}

TEST(NetFaults, TruncatedRegistryUploadIsBadFrame) {
  // Half a payload inside a CRC-valid frame: survives the codec, fails the
  // typed parser.
  expect_quarantine("truncate@registration", 1, kSetup, SessionPhase::kRegistration,
                    QuarantineReason::kBadFrame, make_params(4));
}

TEST(NetFaults, ReplayedParticipationTripsSequenceCheck) {
  // The duplicate (same sequence number) sits behind the original and is
  // read where the server next listens to that client — the distribution
  // sweep of round 0, since K == N selects everyone. The sweep finishes,
  // the offender is quarantined as a replay, and the determination re-runs
  // over the survivors.
  expect_quarantine("replay@participation", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kReplay, make_params(4));
}

TEST(NetFaults, StragglerPastDeadlineTimesOut) {
  // The straggle delay (2000 ms) dwarfs the participation deadline (250 ms)
  // by 8x, so the timeout classification is stable under sanitizer
  // slowdowns. No honest client sleeps, and the harness closes the
  // straggler's link when the session ends, which cuts the delay short.
  auto params = make_params(4);
  params.timeouts.upload = std::chrono::milliseconds(250);
  expect_quarantine("straggle@participation+2000", 1, 0, SessionPhase::kParticipation,
                    QuarantineReason::kTimeout, params);
}

TEST(NetFaults, StraggleFarPastTheSessionEndsWithIt) {
  // A minute-long straggle: the same quarantine record, and both sessions
  // return in seconds because closing the straggler's link ends its wait.
  auto params = make_params(4);
  params.timeouts.upload = std::chrono::milliseconds(250);
  const auto t0 = std::chrono::steady_clock::now();
  expect_quarantine("straggle@participation+60000", 1, 0, SessionPhase::kParticipation,
                    QuarantineReason::kTimeout, params);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

// --- the distribution phase: K == N selects client 1 on every try, so
// the n-th distribution upload is try n of round 0 (H = 3). Every row ends
// in a restart of the determination over the three survivors.

TEST(NetFaults, DisconnectAtDistributionFirstTry) {
  expect_quarantine("disconnect@distribution", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, DisconnectAtDistributionSecondTry) {
  // The second upload is try 1: the client dies after try 0 was collected,
  // with try 2's ciphertext possibly already prepared.
  expect_quarantine("disconnect@distribution:1", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kDisconnect, make_params(4));
}

TEST(NetFaults, CorruptDistributionUploadIsBadCiphertext) {
  expect_quarantine("corrupt@distribution", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kBadCiphertext, make_params(4));
}

TEST(NetFaults, TruncatedDistributionUploadIsBadFrame) {
  expect_quarantine("truncate@distribution", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kBadFrame, make_params(4));
}

TEST(NetFaults, ReplayedDistributionUploadTripsSequenceCheck) {
  // The duplicate upload is read as try 1's upload: the sequence check
  // catches it there.
  expect_quarantine("replay@distribution", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kReplay, make_params(4));
}

TEST(NetFaults, DistributionStragglerPastDeadlineTimesOut) {
  auto params = make_params(4);
  params.timeouts.upload = std::chrono::milliseconds(250);
  expect_quarantine("straggle@distribution+2000", 1, 0, SessionPhase::kDistribution,
                    QuarantineReason::kTimeout, params);
}

TEST(NetFaults, DistributionFaultOnALaterTryMatchesAcrossTopologies) {
  // K = 2 < N: in this seeded session client 1 is first asked for its
  // distribution on try 2 of round 0, so the fault fires after two tries
  // were already collected and scored. Flat loopback, flat TCP and a
  // 2-shard tree must agree on the restart and on the record.
  const std::size_t N = 4;
  const auto dataset = make_dataset(N);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2);
  const auto plans = plan_for(N, 1, net::parse_fault_plan("disconnect@distribution"));

  const auto loop = net::run_loopback_session(dataset, proto, params, plans);
  const auto tcp = net::run_tcp_session(dataset, proto, params, plans, 1);
  const auto tree = net::run_tree_session(dataset, proto, params, 2, plans);
  EXPECT_EQ(net::format_transcript(loop), net::format_transcript(tcp));
  EXPECT_EQ(net::format_transcript(loop), net::format_transcript(tree));

  ASSERT_EQ(loop.rounds.size(), params.rounds);
  ASSERT_EQ(loop.quarantined.size(), 1u);
  const net::QuarantineRecord& q = loop.quarantined[0];
  EXPECT_EQ(q.client_id, 1u);
  EXPECT_EQ(q.round, 0u);
  EXPECT_EQ(q.phase, SessionPhase::kDistribution);
  EXPECT_EQ(q.reason, QuarantineReason::kDisconnect);
  EXPECT_EQ(loop.rounds[0].dropped, std::vector<std::uint64_t>{1});
  for (const auto& rec : loop.rounds) {
    EXPECT_EQ(std::count(rec.selected.begin(), rec.selected.end(), 1u), 0);
  }
}

TEST(NetFaults, ZombieAtShutdownCannotWedgeTeardown) {
  // The zombie swallows the shutdown frame and never closes. The drain
  // deadline is the only thing that can unwedge teardown — the zombie gets
  // a typed record and a closed link, and the session returns.
  auto params = make_params(4);
  params.timeouts.drain = std::chrono::milliseconds(250);
  expect_quarantine("zombie@shutdown", 1, kSetup, SessionPhase::kShutdown,
                    QuarantineReason::kTimeout, params);
}

TEST(NetFaults, EmptyPlanIsByteIdenticalToFaultFreeDriver) {
  // All-kNone plans, the no-plan overloads, and the direct in-process path
  // must all render the same bytes: deadlines and quarantine machinery are
  // invisible until a fault actually fires.
  const auto dataset = make_dataset(4);
  const auto proto = nn::make_mlp(dataset.feature_dim(), 16, 10, 7);
  const auto params = make_params(2);
  const std::vector<FaultPlan> none(4);

  const auto direct = net::run_session_direct(dataset, proto, params);
  const auto plain = net::run_loopback_session(dataset, proto, params);
  const auto planned = net::run_loopback_session(dataset, proto, params, none);
  const auto tcp = net::run_tcp_session(dataset, proto, params, none, 2);

  EXPECT_TRUE(direct.quarantined.empty());
  EXPECT_TRUE(planned.quarantined.empty());
  EXPECT_EQ(net::format_transcript(direct), net::format_transcript(plain));
  EXPECT_EQ(net::format_transcript(direct), net::format_transcript(planned));
  EXPECT_EQ(net::format_transcript(direct), net::format_transcript(tcp));
}

TEST(NetFaults, PlanParserRoundTripsAndRejectsGarbage) {
  const FaultPlan a = net::parse_fault_plan("disconnect@participation:1");
  EXPECT_EQ(a.kind, FaultKind::kDisconnect);
  EXPECT_EQ(a.phase, SessionPhase::kParticipation);
  EXPECT_EQ(a.nth, 1u);
  EXPECT_EQ(a.delay.count(), 0);

  const FaultPlan b = net::parse_fault_plan("straggle@update+2000");
  EXPECT_EQ(b.kind, FaultKind::kStraggle);
  EXPECT_EQ(b.phase, SessionPhase::kUpdate);
  EXPECT_EQ(b.delay.count(), 2000);
  EXPECT_EQ(net::parse_fault_plan(net::to_string(b)), b);

  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_THROW((void)net::parse_fault_plan("disconnect"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_fault_plan("nonsense@update"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_fault_plan("corrupt@nowhere"), std::invalid_argument);
  // A zombie acts on the inbound shutdown; any other phase is a spec error.
  EXPECT_THROW((void)net::parse_fault_plan("zombie@update"), std::invalid_argument);
}

}  // namespace
}  // namespace dubhe

#include "detect/direct_dep.h"

#include <gtest/gtest.h>

#include <set>

#include "detect/offline.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed = 1) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 6);
  return o;
}

class DirectDepModes : public ::testing::TestWithParam<bool> {
 protected:
  DdRunOptions dd() const {
    DdRunOptions d;
    d.parallel = GetParam();
    return d;
  }
};

TEST_P(DirectDepModes, DetectsTrivialInitialCut) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_direct_dep(comp, opts(), dd());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
  EXPECT_EQ(r.full_cut, (std::vector<StateIndex>{1, 1}));
}

TEST_P(DirectDepModes, DetectsCutAfterElimination) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  b.mark_pred(ProcessId(0), true);
  const auto comp = b.build();
  const auto r = run_direct_dep(comp, opts(), dd());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{2, 2}));
}

TEST_P(DirectDepModes, NotDetectedTerminates) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);  // P1 never true
  const auto comp = b.build();
  const auto r = run_direct_dep(comp, opts(), dd());
  EXPECT_FALSE(r.detected);
}

TEST_P(DirectDepModes, IndirectDependenceThroughRelay) {
  // (0,1) -> relay -> (1,2): only *direct* dependences are tracked, so the
  // relay's participation is what keeps the detection sound (Lemma 4.1
  // requires all N processes in the cut).
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0), ProcessId(1)});
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(2));
  b.transfer(ProcessId(2), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_direct_dep(comp, opts(), dd());
  // P0 is true only at (0,1) which precedes (1,2): no consistent cut.
  EXPECT_FALSE(r.detected);
}

TEST_P(DirectDepModes, MatchesAllProcessOracleOnRandomRuns) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 4;
    spec.events_per_process = 12;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto expect = comp.first_wcp_cut_all_processes();
    const auto r = run_direct_dep(comp, opts(seed + 1), dd());
    ASSERT_EQ(r.detected, expect.has_value())
        << "seed=" << seed << " parallel=" << GetParam();
    if (expect) {
      EXPECT_EQ(r.full_cut, *expect)
          << "seed=" << seed << " parallel=" << GetParam();
    }
  }
}

TEST_P(DirectDepModes, ProjectionMatchesPredicateOracle) {
  // The full-cut projection onto the predicate processes must equal the
  // n-process first WCP cut (the minimal consistent extension argument).
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 3;
    spec.events_per_process = 14;
    spec.local_pred_prob = 0.35;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto expect = comp.first_wcp_cut();
    const auto r = run_direct_dep(comp, opts(), dd());
    ASSERT_EQ(r.detected, expect.has_value()) << "seed " << seed;
    if (expect) {
      EXPECT_EQ(r.cut, *expect) << "seed " << seed;
    }
  }
}

TEST_P(DirectDepModes, MessageComplexityWithinPaperBound) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 6;
  spec.events_per_process = 20;
  spec.local_pred_prob = 0.25;
  spec.seed = 5;
  const auto comp = workload::make_random(spec);
  const auto r = run_direct_dep(comp, opts(), dd());
  const std::int64_t N = 6;
  // m counts sends + receives per process; states per process <= m + 1.
  const std::int64_t m = comp.max_messages_per_process() + 1;
  // §4.4: <= 3mN monitor messages (token + polls + replies).
  const std::int64_t monitor_msgs =
      r.monitor_metrics.total_messages(MsgKind::kToken) +
      r.monitor_metrics.total_messages(MsgKind::kPoll) +
      r.monitor_metrics.total_messages(MsgKind::kPollReply);
  EXPECT_LE(monitor_msgs, 3 * m * N);
  // <= mN local snapshots.
  EXPECT_LE(r.app_metrics.total_messages(MsgKind::kSnapshot), m * N);
}

TEST_P(DirectDepModes, InsensitiveToNetworkSeed) {
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 5;
  spec.events_per_process = 16;
  spec.local_pred_prob = 0.3;
  spec.seed = 21;
  const auto comp = workload::make_random(spec);
  const auto a = run_direct_dep(comp, opts(3), dd());
  const auto b = run_direct_dep(comp, opts(777), dd());
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.full_cut, b.full_cut);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, DirectDepModes,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Parallel" : "Serial";
                         });

// Table 1 of the paper: the token data structures are distributed — the
// token itself carries nothing, and each monitor owns its color and G.
TEST(DirectDep, TokenCarriesNoData) {
  static_assert(std::is_empty_v<DdToken>,
                "the direct-dependence token must be empty (Table 1)");
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_direct_dep(comp, opts(), {});
  ASSERT_TRUE(r.detected);
  // Token messages were accounted at 1 bit each.
  EXPECT_EQ(r.monitor_metrics.total_bits(MsgKind::kToken),
            r.monitor_metrics.total_messages(MsgKind::kToken));
}

// The §4 hosts of DdCore: the simulator monitors (serial schedule) and the
// offline run.
enum class Host { kSimulator, kOffline };

class DirectDepHosts : public ::testing::TestWithParam<Host> {};

// Red-chain invariant (Lemma 4.2.3): at every handoff, the set of red
// monitors equals the chain reachable from the new holder.
TEST_P(DirectDepHosts, RedChainInvariantHoldsAtEveryHandoff) {
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 5;
  spec.events_per_process = 15;
  spec.local_pred_prob = 0.3;
  spec.ensure_detectable = true;
  spec.seed = 13;
  const auto comp = workload::make_random(spec);

  int handoffs = 0;
  auto inspector = [&](const std::vector<const DdCore*>& cores, ProcessId from,
                       int next) {
    ++handoffs;
    // Collect the chain starting at `next`.
    std::set<int> chain;
    int cur = next;
    while (cur >= 0) {
      ASSERT_TRUE(chain.insert(cur).second) << "chain has a cycle";
      cur = cores[static_cast<std::size_t>(cur)]->next_red();
    }
    // Chain == red set (the sender has just turned green).
    for (std::size_t p = 0; p < cores.size(); ++p) {
      const bool red = cores[p]->color() == Color::kRed;
      const bool on_chain = chain.contains(static_cast<int>(p));
      EXPECT_EQ(red, on_chain)
          << "P" << p << " red=" << red << " on_chain=" << on_chain
          << " at handoff from " << from;
    }
  };
  const auto r = GetParam() == Host::kSimulator
                     ? run_direct_dep(comp, opts(), {}, inspector)
                     : detect_direct_dep_offline(comp, inspector);
  ASSERT_TRUE(r.detected);
  EXPECT_GT(handoffs, 0);
}

INSTANTIATE_TEST_SUITE_P(Hosts, DirectDepHosts,
                         ::testing::Values(Host::kSimulator, Host::kOffline),
                         [](const auto& info) {
                           return info.param == Host::kSimulator ? "Simulator"
                                                                 : "Offline";
                         });

}  // namespace
}  // namespace wcp::detect

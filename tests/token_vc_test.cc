#include "detect/token_vc.h"

#include <gtest/gtest.h>

#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed = 1) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 6);
  return o;
}

TEST(TokenVc, DetectsTrivialInitialCut) {
  // Both predicates true in the initial states.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_token_vc(comp, opts());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
}

TEST(TokenVc, DetectsCutAfterEliminations) {
  // P0 true at 1 (eliminated: (0,1) -> (1,2)) and at 2; P1 true at 2.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  b.mark_pred(ProcessId(0), true);
  const auto comp = b.build();
  const auto r = run_token_vc(comp, opts());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{2, 2}));
}

TEST(TokenVc, ReportsNotDetectedWhenPredicateNeverConjoins) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);  // P1 never true
  const auto comp = b.build();
  const auto r = run_token_vc(comp, opts());
  EXPECT_FALSE(r.detected);
  EXPECT_TRUE(r.cut.empty());
}

TEST(TokenVc, NotDetectedWhenStatesAlwaysOrdered) {
  // P0 true only at state 1, P1 true only at state 2, but (0,1) -> (1,2):
  // never concurrent.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_token_vc(comp, opts());
  EXPECT_FALSE(r.detected);
}

TEST(TokenVc, MatchesOfflineOracleOnRandomRuns) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 4;
    spec.events_per_process = 15;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto expect = comp.first_wcp_cut();
    const auto r = run_token_vc(comp, opts(seed + 1));
    ASSERT_EQ(r.detected, expect.has_value()) << "seed " << seed;
    if (expect) {
      EXPECT_EQ(r.cut, *expect) << "seed " << seed;
    }
  }
}

TEST(TokenVc, DetectedCutIsConsistentAndSatisfiesPredicates) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 6;
  spec.events_per_process = 25;
  spec.local_pred_prob = 0.35;
  spec.seed = 77;
  spec.ensure_detectable = true;
  const auto comp = workload::make_random(spec);
  const auto r = run_token_vc(comp, opts());
  ASSERT_TRUE(r.detected);
  const auto preds = comp.predicate_processes();
  EXPECT_TRUE(comp.is_consistent_cut(preds, r.cut));
  for (std::size_t s = 0; s < preds.size(); ++s)
    EXPECT_TRUE(comp.local_pred(preds[s], r.cut[s]));
}

TEST(TokenVc, SingleProcessPredicate) {
  // n == 1: the first true state is the cut.
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(1)});
  b.transfer(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_token_vc(comp, opts());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{2}));
  EXPECT_EQ(r.token_hops, 0);  // the token never leaves the only monitor
}

TEST(TokenVc, InsensitiveToNetworkSeed) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 5;
  spec.events_per_process = 20;
  spec.local_pred_prob = 0.3;
  spec.seed = 123;
  const auto comp = workload::make_random(spec);
  const auto a = run_token_vc(comp, opts(1));
  const auto b = run_token_vc(comp, opts(999));
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.cut, b.cut);
}

TEST(TokenVc, CausalityThroughRelaysIsRespected) {
  // The predicate spans P0 and P1 but all their communication flows through
  // relay P2. A false detection would occur if the relay dropped causality.
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0), ProcessId(1)});
  b.mark_pred(ProcessId(0), true);                 // (0,1)
  b.transfer(ProcessId(0), ProcessId(2));
  b.transfer(ProcessId(2), ProcessId(1));
  b.mark_pred(ProcessId(1), true);                 // (1,2) depends on (0,1)
  const auto comp = b.build();
  const auto r = run_token_vc(comp, opts());
  // (0,1) -> (1,2): not concurrent, and P0 has no later true state.
  EXPECT_FALSE(r.detected);
}

TEST(TokenVc, TokenMessageCountWithinPaperBound) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 6;
  spec.events_per_process = 20;
  spec.local_pred_prob = 0.25;
  spec.seed = 5;
  const auto comp = workload::make_random(spec);
  const auto r = run_token_vc(comp, opts());
  const std::int64_t n = static_cast<std::int64_t>(6);
  const std::int64_t m = comp.max_messages_per_process();
  // §3.4: the token moves at most nm times; snapshots <= nm in total.
  EXPECT_LE(r.token_hops, n * (m + 1));
  EXPECT_LE(r.monitor_metrics.total_messages(MsgKind::kToken), n * (m + 1));
  EXPECT_LE(r.app_metrics.total_messages(MsgKind::kSnapshot), n * (m + 1));
}

TEST(TokenVc, WorksUnderHeavyLatencyVariance) {
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 12;
  spec.local_pred_prob = 0.4;
  spec.ensure_detectable = true;
  spec.seed = 31;
  const auto comp = workload::make_random(spec);
  RunOptions o;
  o.latency = sim::LatencyModel::exponential(20.0);
  o.seed = 8;
  const auto r = run_token_vc(comp, o);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, *comp.first_wcp_cut());
}

}  // namespace
}  // namespace wcp::detect

#include "detect/centralized.h"

#include <gtest/gtest.h>

#include "detect/token_vc.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed = 1) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 6);
  return o;
}

TEST(Centralized, DetectsTrivialInitialCut) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_centralized(comp, opts());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
}

TEST(Centralized, EliminatesDominatedHeads) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  b.mark_pred(ProcessId(0), true);
  const auto comp = b.build();
  const auto r = run_centralized(comp, opts());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{2, 2}));
}

TEST(Centralized, NotDetectedTerminates) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  const auto comp = b.build();
  const auto r = run_centralized(comp, opts());
  EXPECT_FALSE(r.detected);
}

TEST(Centralized, MatchesOracleOnRandomRuns) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 4;
    spec.events_per_process = 15;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto expect = comp.first_wcp_cut();
    const auto r = run_centralized(comp, opts(seed + 1));
    ASSERT_EQ(r.detected, expect.has_value()) << "seed " << seed;
    if (expect) {
      EXPECT_EQ(r.cut, *expect) << "seed " << seed;
    }
  }
}

TEST(Centralized, AgreesWithTokenAlgorithm) {
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 7;
    spec.num_predicate = 5;
    spec.events_per_process = 18;
    spec.local_pred_prob = 0.25;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto checker = run_centralized(comp, opts());
    const auto token = run_token_vc(comp, opts());
    EXPECT_EQ(checker.detected, token.detected) << "seed " << seed;
    EXPECT_EQ(checker.cut, token.cut) << "seed " << seed;
  }
}

TEST(Centralized, AllBufferingConcentratesAtTheChecker) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 6;
  spec.events_per_process = 20;
  spec.local_pred_prob = 0.4;
  spec.seed = 3;
  const auto comp = workload::make_random(spec);
  const auto r = run_centralized(comp, opts());
  // Only the coordinator slot buffers snapshots; monitors don't exist.
  const auto N = comp.num_processes();
  for (std::size_t p = 0; p < N; ++p)
    EXPECT_EQ(r.monitor_metrics.at(ProcessId(static_cast<int>(p)))
                  .peak_buffered_bytes,
              0);
  EXPECT_GT(r.monitor_metrics.at(ProcessId(static_cast<int>(N)))
                .peak_buffered_bytes,
            0);
}

TEST(Centralized, CheckerSendsNoMessages) {
  // The checker is a pure sink: all detection work happens locally.
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 10;
  spec.local_pred_prob = 0.5;
  spec.seed = 2;
  const auto comp = workload::make_random(spec);
  const auto r = run_centralized(comp, opts());
  EXPECT_EQ(r.monitor_metrics.total_messages(), 0);
  EXPECT_EQ(r.token_hops, 0);
}

}  // namespace
}  // namespace wcp::detect

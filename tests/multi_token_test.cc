#include "detect/multi_token.h"

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

class MultiTokenGroups : public ::testing::TestWithParam<int> {};

TEST_P(MultiTokenGroups, MatchesOracleOnRandomRuns) {
  const int g = GetParam();
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 6;
    spec.events_per_process = 15;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto expect = comp.first_wcp_cut();
    MultiTokenOptions mt;
    mt.num_groups = g;
    const auto r = run_multi_token(comp, opts(seed + 1), mt);
    ASSERT_EQ(r.detected, expect.has_value()) << "g=" << g << " seed=" << seed;
    if (expect) {
      EXPECT_EQ(r.cut, *expect) << "g=" << g << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, MultiTokenGroups,
                         ::testing::Values(1, 2, 3, 6, 8));

TEST(MultiToken, AgreesWithSingleTokenAlgorithm) {
  for (std::uint64_t seed = 50; seed < 60; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 8;
    spec.num_predicate = 6;
    spec.events_per_process = 18;
    spec.local_pred_prob = 0.25;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto single = run_token_vc(comp, opts());
    MultiTokenOptions mt;
    mt.num_groups = 3;
    const auto multi = run_multi_token(comp, opts(), mt);
    EXPECT_EQ(single.detected, multi.detected) << "seed " << seed;
    EXPECT_EQ(single.cut, multi.cut) << "seed " << seed;
  }
}

TEST(MultiToken, DetectsTrivialCut) {
  ComputationBuilder b(3);
  for (int p = 0; p < 3; ++p) b.mark_pred(ProcessId(p), true);
  const auto comp = b.build();
  MultiTokenOptions mt;
  mt.num_groups = 3;
  const auto r = run_multi_token(comp, opts(), mt);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1, 1}));
}

TEST(MultiToken, NotDetectedTerminates) {
  ComputationBuilder b(3);
  b.mark_pred(ProcessId(0), true);  // others never true
  const auto comp = b.build();
  MultiTokenOptions mt;
  mt.num_groups = 2;
  const auto r = run_multi_token(comp, opts(), mt);
  EXPECT_FALSE(r.detected);
}

TEST(MultiToken, GroupCountClampedToPredicateWidth) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  MultiTokenOptions mt;
  mt.num_groups = 100;  // clamped to n == 2
  const auto r = run_multi_token(comp, opts(), mt);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
}

TEST(MultiToken, CutIsConsistentOnDetectableRun) {
  workload::RandomSpec spec;
  spec.num_processes = 9;
  spec.num_predicate = 9;
  spec.events_per_process = 20;
  spec.local_pred_prob = 0.3;
  spec.ensure_detectable = true;
  spec.seed = 4;
  const auto comp = workload::make_random(spec);
  MultiTokenOptions mt;
  mt.num_groups = 3;
  const auto r = run_multi_token(comp, opts(), mt);
  ASSERT_TRUE(r.detected);
  EXPECT_TRUE(comp.is_consistent_cut(comp.predicate_processes(), r.cut));
}

}  // namespace
}  // namespace wcp::detect

#include "detect/offline.h"

#include <gtest/gtest.h>

#include "detect/direct_dep.h"
#include "detect/token_vc.h"
#include "workload/mutex_workload.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed = 1) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 6);
  return o;
}

TEST(OfflineTokenVc, MatchesOracleAndOnlineRun) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 4;
    spec.events_per_process = 15;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto oracle = comp.first_wcp_cut();
    const auto off = detect_token_vc_offline(comp);
    ASSERT_EQ(off.detected, oracle.has_value()) << "seed " << seed;
    if (oracle) {
      EXPECT_EQ(off.cut, *oracle) << "seed " << seed;
    }

    const auto on = run_token_vc(comp, opts(seed + 1));
    EXPECT_EQ(off.detected, on.detected) << "seed " << seed;
    EXPECT_EQ(off.cut, on.cut) << "seed " << seed;
    // Identical work accounting: the offline run IS the serial schedule.
    EXPECT_EQ(off.monitor_metrics.total_work(),
              on.monitor_metrics.total_work())
        << "seed " << seed;
    EXPECT_EQ(off.token_hops, on.token_hops) << "seed " << seed;
  }
}

TEST(OfflineDirectDep, MatchesOracleAndOnlineRun) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 14;
    spec.local_pred_prob = 0.35;
    spec.seed = seed + 300;
    const auto comp = workload::make_random(spec);
    const auto oracle = comp.first_wcp_cut_all_processes();
    const auto off = detect_direct_dep_offline(comp);
    ASSERT_EQ(off.detected, oracle.has_value()) << "seed " << seed;
    if (oracle) {
      EXPECT_EQ(off.full_cut, *oracle) << "seed " << seed;
    }

    const auto on = run_direct_dep(comp, opts(seed + 1));
    EXPECT_EQ(off.detected, on.detected) << "seed " << seed;
    EXPECT_EQ(off.full_cut, on.full_cut) << "seed " << seed;
    EXPECT_EQ(off.monitor_metrics.total_work(),
              on.monitor_metrics.total_work())
        << "seed " << seed;
  }
}

TEST(Offline, LargeScaleDifferentialSweep) {
  // Scales the online harness can't reach in test time: the two offline
  // algorithms and the oracle must agree on wide, long runs.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 40;
    spec.num_predicate = 40;
    spec.events_per_process = 60;
    spec.local_pred_prob = 0.2;
    spec.seed = seed * 7 + 1;
    const auto comp = workload::make_random(spec);
    const auto oracle = comp.first_wcp_cut();
    const auto tok = detect_token_vc_offline(comp);
    const auto dd = detect_direct_dep_offline(comp);
    ASSERT_EQ(tok.detected, oracle.has_value()) << "seed " << seed;
    ASSERT_EQ(dd.detected, oracle.has_value()) << "seed " << seed;
    if (oracle) {
      EXPECT_EQ(tok.cut, *oracle) << "seed " << seed;
      EXPECT_EQ(dd.cut, *oracle) << "seed " << seed;
    }
  }
}

TEST(Offline, WorstCaseMutexWorkScalesAsClaimed) {
  // Work on the forced-final-violation workload grows linearly in rounds
  // (~m) for fixed n: ratio between consecutive sizes ~2.
  workload::MutexSpec base;
  base.num_clients = 6;
  base.force_final_violation = true;
  base.seed = 9;

  std::int64_t prev = 0;
  for (std::int64_t rounds : {10, 20, 40}) {
    auto spec = base;
    spec.rounds_per_client = rounds;
    const auto mc = workload::make_mutex(spec);
    const auto r = detect_token_vc_offline(mc.computation);
    ASSERT_TRUE(r.detected);
    const auto work = r.monitor_metrics.total_work();
    if (prev > 0) {
      EXPECT_GT(work, prev * 3 / 2);
      EXPECT_LT(work, prev * 3);
    }
    prev = work;
  }
}

TEST(Offline, NotDetectedWhenStarved) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  const auto comp = b.build();
  EXPECT_FALSE(detect_token_vc_offline(comp).detected);
  EXPECT_FALSE(detect_direct_dep_offline(comp).detected);
}

}  // namespace
}  // namespace wcp::detect

#include "detect/lattice_online.h"

#include <gtest/gtest.h>

#include "detect/lattice.h"
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

TEST(LatticeOnline, DetectsTrivialInitialCut) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = run_lattice_online(comp, opts());
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
  EXPECT_EQ(r.cuts_explored, 1);
}

TEST(LatticeOnline, NotDetectedTerminates) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);  // P1 never true
  b.transfer(ProcessId(0), ProcessId(1));
  const auto comp = b.build();
  const auto r = run_lattice_online(comp, opts());
  EXPECT_FALSE(r.detected);
  EXPECT_FALSE(r.truncated);
  // Same exploration as the offline baseline: all 3 consistent cuts.
  EXPECT_EQ(r.cuts_explored, 3);
}

class LatticeOnlineVsOffline : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LatticeOnlineVsOffline, SameCutAndSameExplorationCount) {
  const std::uint64_t seed = GetParam();
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 9;
  spec.local_pred_prob = 0.3;
  spec.seed = seed;
  const auto comp = workload::make_random(spec);

  const auto offline = detect_lattice(comp, /*max_cuts=*/500'000);
  ASSERT_FALSE(offline.truncated);
  const auto online = run_lattice_online(comp, opts(seed + 1));
  ASSERT_EQ(online.detected, offline.detected) << "seed " << seed;
  if (offline.detected) {
    EXPECT_EQ(online.cut, offline.cut) << "seed " << seed;
    // The minimal satisfying cut is unique, so both must report it; the
    // number of cuts materialized before it can differ by exploration
    // order, but on detection the online count never exceeds offline's
    // full-level sweep by more than the final level's width. Check the
    // strong property that matters: same first cut.
  } else {
    // Undetected: both visited the entire lattice.
    EXPECT_EQ(online.cuts_explored, offline.cuts_explored)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeOnlineVsOffline,
                         ::testing::Range<std::uint64_t>(0, 15));

TEST(LatticeOnline, AgreesWithTokenDetectorOnDomainWorkload) {
  workload::MutexSpec spec;
  spec.num_clients = 2;
  spec.rounds_per_client = 4;
  spec.violation_prob = 0.5;
  spec.seed = 6;
  const auto mc = workload::make_mutex(spec);
  const auto token = run_token_vc(mc.computation, opts());
  const auto lattice = run_lattice_online(mc.computation, opts());
  EXPECT_EQ(lattice.detected, token.detected);
  if (token.detected) {
    EXPECT_EQ(lattice.cut, token.cut);
  }
}

TEST(LatticeOnline, TruncationCap) {
  // Independent processes, predicate never true: exponential lattice.
  ComputationBuilder b(3);
  for (int p = 0; p < 3; ++p)
    for (int k = 0; k < 6; ++k)
      b.send(ProcessId(p), ProcessId((p + 1) % 3));  // undelivered
  const auto comp = b.build();
  const auto r = run_lattice_online(comp, opts(), /*max_cuts=*/50);
  EXPECT_FALSE(r.detected);
  EXPECT_TRUE(r.truncated);
}

TEST(LatticeOnline, StreamsEveryStateToTheChecker) {
  workload::RandomSpec spec;
  spec.num_processes = 3;
  spec.num_predicate = 3;
  spec.events_per_process = 8;
  spec.local_pred_prob = 0.0;  // never detected: full streams
  spec.seed = 2;
  const auto comp = workload::make_random(spec);
  const auto r = run_lattice_online(comp, opts());
  EXPECT_FALSE(r.detected);
  EXPECT_EQ(r.app_metrics.total_messages(MsgKind::kSnapshot),
            comp.total_states());
}

}  // namespace
}  // namespace wcp::detect

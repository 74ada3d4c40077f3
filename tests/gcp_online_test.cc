#include "detect/centralized.h"

#include <gtest/gtest.h>

#include "workload/random_workload.h"
#include "workload/termination_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed = 1) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 6);
  return o;
}

TEST(GcpOnline, MatchesOfflineOnHandBuiltTermination) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(1), true);
  const MessageId work = b.send(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(0), true);
  b.receive(work);
  b.mark_pred(ProcessId(1), true);
  const auto c = b.build();

  const ChannelPredicate chan[] = {
      ChannelPredicate::empty(ProcessId(0), ProcessId(1))};
  const auto offline = detect_gcp(c, chan);
  const auto online = run_gcp_centralized(c, chan, opts());
  ASSERT_TRUE(offline.detected);
  ASSERT_TRUE(online.detected);
  EXPECT_EQ(online.cut, offline.cut);
  EXPECT_EQ(online.cut, (std::vector<StateIndex>{2, 2}));
}

TEST(GcpOnline, NotDetectedTerminates) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(1), true);
  const MessageId work = b.send(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(0), true);
  b.receive(work);  // P1 never passive again
  const auto c = b.build();
  const ChannelPredicate chan[] = {
      ChannelPredicate::empty(ProcessId(0), ProcessId(1))};
  const auto online = run_gcp_centralized(c, chan, opts());
  EXPECT_FALSE(online.detected);
}

TEST(GcpOnline, RejectsChannelEndpointOutsidePredicate) {
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0)});
  const auto c = b.build();
  const ChannelPredicate chan[] = {
      ChannelPredicate::empty(ProcessId(1), ProcessId(2))};
  EXPECT_THROW(run_gcp_centralized(c, chan, opts()), std::invalid_argument);
}

class GcpOnlineVsOffline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcpOnlineVsOffline, AgreeOnRandomRuns) {
  const std::uint64_t seed = GetParam();
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 5;  // endpoints must be predicate processes
  spec.events_per_process = 12;
  spec.local_pred_prob = 0.4;
  spec.drain_prob = 0.8;
  spec.seed = seed;
  const auto c = workload::make_random(spec);

  const auto channels = ChannelPredicate::all_channels_empty(5);
  const auto offline = detect_gcp(c, channels);
  const auto online = run_gcp_centralized(c, channels, opts(seed + 1));
  ASSERT_EQ(online.detected, offline.detected) << "seed " << seed;
  if (offline.detected) {
    EXPECT_EQ(online.cut, offline.cut) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcpOnlineVsOffline,
                         ::testing::Range<std::uint64_t>(0, 15));

TEST(GcpOnline, TerminationDetectionEndToEnd) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    workload::TerminationSpec spec;
    spec.num_processes = 4;
    spec.initial_work = 3;
    spec.seed = seed + 40;
    const auto t = workload::make_termination(spec);
    const auto channels = ChannelPredicate::all_channels_empty(4);
    const auto online = run_gcp_centralized(t.computation, channels,
                                            opts(seed + 1));
    ASSERT_TRUE(online.detected) << "seed " << seed;
    EXPECT_EQ(online.cut, t.termination_cut) << "seed " << seed;
  }
}

TEST(GcpOnline, MixedChannelKindsAgreeWithLatticeOracle) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 3;
    spec.num_predicate = 3;
    spec.events_per_process = 8;
    spec.local_pred_prob = 0.6;
    spec.drain_prob = 0.6;
    spec.seed = seed + 900;
    const auto c = workload::make_random(spec);
    const ChannelPredicate channels[] = {
        ChannelPredicate::at_most(ProcessId(0), ProcessId(1), 1),
        ChannelPredicate::empty(ProcessId(1), ProcessId(2)),
    };
    const auto oracle = detect_gcp_lattice(c, channels, 500'000);
    const auto online = run_gcp_centralized(c, channels, opts(seed + 1));
    ASSERT_EQ(online.detected, oracle.detected) << "seed " << seed;
    if (oracle.detected) {
      EXPECT_EQ(online.cut, oracle.cut) << "seed " << seed;
    }
  }
}

TEST(GcpOnline, SnapshotsCarryCountsAndCostMore) {
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 10;
  spec.local_pred_prob = 0.5;
  spec.seed = 5;
  const auto c = workload::make_random(spec);
  const auto channels = ChannelPredicate::all_channels_empty(4);
  const auto online = run_gcp_centralized(c, channels, opts());
  // Each snapshot: n*64 clock bits + 2N*64 counter bits + the pred flag.
  const auto snaps = online.app_metrics.total_messages(MsgKind::kSnapshot);
  EXPECT_EQ(online.app_metrics.total_bits(MsgKind::kSnapshot),
            snaps * (4 * 64 + 2 * 4 * 64 + 1));
}

}  // namespace
}  // namespace wcp::detect

#include "detect/gcp.h"

#include <gtest/gtest.h>

#include "workload/random_workload.h"
#include "workload/termination_workload.h"

namespace wcp::detect {
namespace {

TEST(InTransit, CountsSendsAndReceivesAtTheCut) {
  // P0 sends m0 (received) then m1 (in flight at the end).
  ComputationBuilder b(2);
  const MessageId m0 = b.send(ProcessId(0), ProcessId(1));
  b.receive(m0);
  b.send(ProcessId(0), ProcessId(1));  // m1, never received
  const auto c = b.build();

  // At (1,1): nothing sent yet (the send ends state 1).
  EXPECT_EQ(in_transit(c, ProcessId(0), 1, ProcessId(1), 1), 0);
  // At (2,1): m0 sent, not received.
  EXPECT_EQ(in_transit(c, ProcessId(0), 2, ProcessId(1), 1), 1);
  // At (2,2): m0 sent and received.
  EXPECT_EQ(in_transit(c, ProcessId(0), 2, ProcessId(1), 2), 0);
  // At (3,2): m1 also sent, still in flight.
  EXPECT_EQ(in_transit(c, ProcessId(0), 3, ProcessId(1), 2), 1);
}

TEST(ChannelPredicate, Holds) {
  const auto empty = ChannelPredicate::empty(ProcessId(0), ProcessId(1));
  EXPECT_TRUE(empty.holds(0));
  EXPECT_FALSE(empty.holds(2));
  const auto atmost = ChannelPredicate::at_most(ProcessId(0), ProcessId(1), 2);
  EXPECT_TRUE(atmost.holds(2));
  EXPECT_FALSE(atmost.holds(3));
  const auto atleast =
      ChannelPredicate::at_least(ProcessId(0), ProcessId(1), 1);
  EXPECT_FALSE(atleast.holds(0));
  EXPECT_TRUE(atleast.holds(1));
}

TEST(ChannelPredicate, AllChannelsEmptyEnumeratesPairs) {
  const auto preds = ChannelPredicate::all_channels_empty(3);
  EXPECT_EQ(preds.size(), 6u);
}

TEST(DetectGcp, PlainWcpWhenNoChannels) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  b.mark_pred(ProcessId(0), true);
  const auto c = b.build();
  const auto r = detect_gcp(c, {});
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{2, 2}));
}

TEST(DetectGcp, ChannelEmptyRejectsFalseTermination) {
  // P0 passive after sending work to P1; P1 passive until the receive,
  // active (never passive again) after. WCP-only sees "all passive" at
  // (2,1); the channel-empty conjunct makes the GCP undetectable.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(1), true);                 // P1 state 1 passive
  const MessageId work = b.send(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(0), true);                 // P0 state 2 passive
  b.receive(work);                                 // P1 state 2 active
  const auto c = b.build();

  ASSERT_TRUE(c.first_wcp_cut().has_value());  // false termination exists
  const ChannelPredicate chan[] = {
      ChannelPredicate::empty(ProcessId(0), ProcessId(1))};
  const auto r = detect_gcp(c, chan);
  EXPECT_FALSE(r.detected);  // true termination never happens in this run
}

TEST(DetectGcp, FindsTrueTerminationCut) {
  // Same as above, but P1 goes passive after handling the work: the GCP
  // must skip the false cut and land on the real one.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(1), true);
  const MessageId work = b.send(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(0), true);
  b.receive(work);
  b.mark_pred(ProcessId(1), true);  // P1 state 2 passive again
  const auto c = b.build();

  const auto wcp_cut = c.first_wcp_cut();
  ASSERT_TRUE(wcp_cut.has_value());
  EXPECT_EQ(*wcp_cut, (std::vector<StateIndex>{2, 1}));  // false termination

  const ChannelPredicate chan[] = {
      ChannelPredicate::empty(ProcessId(0), ProcessId(1))};
  const auto r = detect_gcp(c, chan);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{2, 2}));  // the real one
}

TEST(DetectGcp, AtLeastAdvancesTheSender) {
  // Require >= 1 message in transit on P0 -> P1. P0 must advance past its
  // initial state (nothing sent yet).
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  b.send(ProcessId(0), ProcessId(1));  // never received
  const auto c = b.build();

  const ChannelPredicate chan[] = {
      ChannelPredicate::at_least(ProcessId(0), ProcessId(1), 1)};
  const auto r = detect_gcp(c, chan);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{2, 1}));
}

TEST(DetectGcp, ChannelEndpointsOutsidePredicateSetJoinTheCut) {
  // Predicate over P0 only; channel predicate touches P1 and P2.
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0)});
  b.mark_pred(ProcessId(0), true);
  const MessageId m = b.send(ProcessId(1), ProcessId(2));
  b.receive(m);
  const auto c = b.build();

  const ChannelPredicate chan[] = {
      ChannelPredicate::empty(ProcessId(1), ProcessId(2))};
  const auto r = detect_gcp(c, chan);
  ASSERT_TRUE(r.detected);
  ASSERT_EQ(r.procs.size(), 3u);  // P0 + both endpoints
  EXPECT_EQ(r.cut.size(), 3u);
}

TEST(DetectGcpLattice, CapReportsTruncatedNotANegativeVerdict) {
  // The satisfying cut (2, 1) is one level up, so a cap of one cut stops
  // at the bottom cut before reaching it.
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  b.send(ProcessId(0), ProcessId(1));  // never received
  const auto c = b.build();
  const ChannelPredicate chan[] = {
      ChannelPredicate::at_least(ProcessId(0), ProcessId(1), 1)};

  const auto capped = detect_gcp_lattice(c, chan, /*max_cuts=*/1);
  EXPECT_TRUE(capped.truncated);
  EXPECT_FALSE(capped.detected);
  EXPECT_EQ(capped.cuts_explored, 1);

  const auto full = detect_gcp_lattice(c, chan);
  EXPECT_FALSE(full.truncated);
  ASSERT_TRUE(full.detected);
  EXPECT_EQ(full.cut, (std::vector<StateIndex>{2, 1}));
}

class GcpVsLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcpVsLattice, AdvanceCandidateMatchesLatticeOracle) {
  const std::uint64_t seed = GetParam();
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 8;
  spec.local_pred_prob = 0.45;
  spec.drain_prob = 0.8;
  spec.seed = seed;
  const auto c = workload::make_random(spec);

  const auto channels = ChannelPredicate::all_channels_empty(4);
  const auto fast = detect_gcp(c, channels);
  const auto oracle = detect_gcp_lattice(c, channels, /*max_cuts=*/500'000);
  ASSERT_FALSE(oracle.truncated) << "seed " << seed;
  ASSERT_EQ(fast.detected, oracle.detected) << "seed " << seed;
  if (fast.detected) {
    EXPECT_EQ(fast.cut, oracle.cut) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcpVsLattice,
                         ::testing::Range<std::uint64_t>(0, 15));

class GcpAtMostVsLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcpAtMostVsLattice, MixedKindsMatchOracle) {
  const std::uint64_t seed = GetParam();
  workload::RandomSpec spec;
  spec.num_processes = 3;
  spec.num_predicate = 3;
  spec.events_per_process = 8;
  spec.local_pred_prob = 0.6;
  spec.drain_prob = 0.6;
  spec.seed = seed + 500;
  const auto c = workload::make_random(spec);

  const ChannelPredicate channels[] = {
      ChannelPredicate::at_most(ProcessId(0), ProcessId(1), 1),
      ChannelPredicate::at_most(ProcessId(1), ProcessId(2), 2),
      ChannelPredicate::empty(ProcessId(2), ProcessId(0)),
  };
  const auto fast = detect_gcp(c, channels);
  const auto oracle = detect_gcp_lattice(c, channels, /*max_cuts=*/500'000);
  ASSERT_FALSE(oracle.truncated) << "seed " << seed;
  ASSERT_EQ(fast.detected, oracle.detected) << "seed " << seed;
  if (fast.detected) {
    EXPECT_EQ(fast.cut, oracle.cut) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcpAtMostVsLattice,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Termination, GcpFindsTheTrueTerminationCut) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    workload::TerminationSpec spec;
    spec.num_processes = 4;
    spec.initial_work = 3;
    spec.spawn_prob = 0.35;
    spec.seed = seed;
    const auto t = workload::make_termination(spec);
    const auto channels = ChannelPredicate::all_channels_empty(4);
    const auto r = detect_gcp(t.computation, channels);
    ASSERT_TRUE(r.detected) << "seed " << seed;
    EXPECT_EQ(r.cut, t.termination_cut) << "seed " << seed;
  }
}

TEST(Termination, WcpAloneDetectsFalseTermination) {
  // Whenever work was actually spawned, the local-only WCP fires strictly
  // before the true termination cut on at least one component.
  int earlier = 0, runs = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    workload::TerminationSpec spec;
    spec.num_processes = 4;
    spec.initial_work = 3;
    spec.seed = seed + 100;
    const auto t = workload::make_termination(spec);
    if (t.work_messages == 0) continue;
    ++runs;
    const auto wcp = t.computation.first_wcp_cut();
    ASSERT_TRUE(wcp.has_value()) << "seed " << seed;
    bool strictly_earlier = false;
    for (std::size_t s = 0; s < wcp->size(); ++s) {
      ASSERT_LE((*wcp)[s], t.termination_cut[s]);
      if ((*wcp)[s] < t.termination_cut[s]) strictly_earlier = true;
    }
    if (strictly_earlier) ++earlier;
  }
  ASSERT_GT(runs, 0);
  EXPECT_EQ(earlier, runs);  // every run with work has a false termination
}

TEST(Termination, WorkloadShape) {
  workload::TerminationSpec spec;
  spec.num_processes = 5;
  spec.seed = 4;
  const auto t = workload::make_termination(spec);
  EXPECT_EQ(t.computation.num_processes(), 5u);
  EXPECT_EQ(t.computation.predicate_processes().size(), 5u);
  EXPECT_GT(t.work_messages, 0);
  // The final states are all passive.
  for (std::size_t p = 0; p < 5; ++p) {
    const ProcessId pid(static_cast<int>(p));
    EXPECT_TRUE(t.computation.local_pred(pid, t.computation.num_states(pid)));
  }
}

}  // namespace
}  // namespace wcp::detect

#include <gtest/gtest.h>

#include "detect/lattice.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

TEST(Definitely, TrueWhenBottomSatisfies) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  b.transfer(ProcessId(0), ProcessId(1));
  const auto c = b.build();
  const auto r = detect_definitely(c);
  EXPECT_TRUE(r.definitely);
}

TEST(Definitely, FalseWhenPredicateNeverHolds) {
  ComputationBuilder b(2);
  b.transfer(ProcessId(0), ProcessId(1));
  const auto c = b.build();
  EXPECT_FALSE(detect_definitely(c).definitely);
}

TEST(Definitely, PossiblyButNotDefinitely) {
  // Two independent processes, predicate true only in (P0 state 1, P1
  // state 2)-ish combinations: an observation can order the events so the
  // simultaneous window is skipped.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);   // P0 state 1
  b.send(ProcessId(0), ProcessId(1));  // undelivered: no causality
  b.mark_pred(ProcessId(1), true);   // P1 state 1
  b.send(ProcessId(1), ProcessId(0));  // undelivered
  const auto c = b.build();
  // possibly: cut (1,1) satisfies.
  ASSERT_TRUE(detect_lattice(c).detected);
  // but an observer may see P0 advance to state 2 (pred false) before ever
  // observing P1's state 1... the path (1,1)? The bottom (1,1) satisfies
  // => every observation starts there => definitely.
  EXPECT_TRUE(detect_definitely(c).definitely);
}

TEST(Definitely, AvoidablePredicateIsNotDefinite) {
  // P0: states 1(false) 2(true) 3(false); P1: states 1(false) 2(true)
  // 3(false); no causality. possibly((T,T)) via (2,2), but an observation
  // can interleave to avoid both being true simultaneously.
  ComputationBuilder b(2);
  for (int p = 0; p < 2; ++p) {
    b.send(ProcessId(p), ProcessId(1 - p));  // undelivered
    b.mark_pred(ProcessId(p), true);         // state 2
    b.send(ProcessId(p), ProcessId(1 - p));  // undelivered
  }
  const auto c = b.build();
  ASSERT_TRUE(detect_lattice(c).detected);
  EXPECT_FALSE(detect_definitely(c).definitely);
}

TEST(Definitely, ForcedByCausality) {
  // A synchronization pattern that FORCES the predicate: P0 true from
  // state 2 on, P1 true only at state 2, and messages pin every
  // observation to pass through (>=2, 2).
  //   P0 state 1 -> send m1 -> P1 receives (state 2, true)
  //   P1 then sends m2 back, P0 receives it (P0 states stay true).
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), false);
  const MessageId m1 = b.send(ProcessId(0), ProcessId(1));
  b.set_default_pred(ProcessId(0), true);  // P0 true from state 2 on
  b.receive(m1);
  b.mark_pred(ProcessId(1), true);  // P1 state 2 true
  const MessageId m2 = b.send(ProcessId(1), ProcessId(0));
  b.receive(m2);
  const auto c = b.build();
  // Any observation: P1 enters state 2 only after P0 reached state 2;
  // P1 leaves state 2 (to state 3) only via the send whose receipt puts
  // P0 in state 3 — but P0 states 2,3 are all true, so while P1 is in its
  // true state 2, P0 is always in a true state.
  EXPECT_TRUE(detect_definitely(c).definitely);
  ASSERT_TRUE(detect_lattice(c).detected);
}

TEST(Definitely, ImpliesPossibly) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 4;
    spec.num_predicate = 4;
    spec.events_per_process = 8;
    spec.local_pred_prob = 0.5;
    spec.seed = seed;
    const auto c = workload::make_random(spec);
    const auto def = detect_definitely(c, 1'000'000);
    const auto pos = detect_lattice(c, 1'000'000);
    ASSERT_FALSE(def.truncated);
    ASSERT_FALSE(pos.truncated);
    if (def.definitely) {
      EXPECT_TRUE(pos.detected) << "seed " << seed;
    }
    if (!pos.detected) {
      EXPECT_FALSE(def.definitely) << "seed " << seed;
    }
  }
}

TEST(Definitely, TruncationReported) {
  ComputationBuilder b(3);
  for (int p = 0; p < 3; ++p)
    for (int k = 0; k < 8; ++k)
      b.send(ProcessId(p), ProcessId((p + 1) % 3));  // undelivered
  const auto c = b.build();  // predicate never true, big lattice
  const auto r = detect_definitely(c, /*max_cuts=*/10);
  EXPECT_TRUE(r.truncated);
}

}  // namespace
}  // namespace wcp::detect

// Structural edge cases across detectors: unsorted predicate orders,
// width-1 predicates, processes with no events, self-contained cliques,
// detection at the very first and very last possible cut.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/centralized.h"
#include "detect/direct_dep.h"
#include "detect/multi_token.h"
#include "detect/offline.h"
#include "detect/token_vc.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed = 1) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 5);
  return o;
}

TEST(EdgeCases, PredicateOrderNeedNotFollowProcessIds) {
  // Slots in reverse process order: cut component s refers to
  // predicate_processes()[s], not to P_s.
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(2), ProcessId(0)});
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(2));
  b.mark_pred(ProcessId(2), true);
  b.mark_pred(ProcessId(0), true);
  const auto comp = b.build();
  const auto oracle = comp.first_wcp_cut();
  ASSERT_TRUE(oracle.has_value());
  // Slot 0 = P2 at state 2, slot 1 = P0 at state 2.
  EXPECT_EQ(*oracle, (std::vector<StateIndex>{2, 2}));

  const auto tok = run_token_vc(comp, opts());
  ASSERT_TRUE(tok.detected);
  EXPECT_EQ(tok.cut, *oracle);
  const auto dd = run_direct_dep(comp, opts());
  ASSERT_TRUE(dd.detected);
  EXPECT_EQ(dd.cut, *oracle);
  const auto chk = run_centralized(comp, opts());
  ASSERT_TRUE(chk.detected);
  EXPECT_EQ(chk.cut, *oracle);
}

TEST(EdgeCases, RandomUnsortedPredicateOrders) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    // Build a random computation, then re-express it with a scrambled
    // predicate order through the trace-io round trip... simpler: builder
    // directly with scrambled order.
    Rng rng(seed + 5000);
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 5;
    spec.events_per_process = 12;
    spec.local_pred_prob = 0.35;
    spec.seed = seed;
    const auto base = workload::make_random(spec);

    // Same events, scrambled slot order.
    std::vector<ProcessId> order(base.predicate_processes().begin(),
                                 base.predicate_processes().end());
    rng.shuffle(order);

    ComputationBuilder b(base.num_processes());
    b.set_predicate_processes(order);
    // Replay events of `base` in a causally valid order.
    std::vector<std::size_t> next(base.num_processes(), 0);
    std::vector<MessageId> remap(base.messages().size(), -1);
    for (std::size_t p = 0; p < base.num_processes(); ++p)
      if (base.local_pred(ProcessId(static_cast<int>(p)), 1))
        b.mark_pred(ProcessId(static_cast<int>(p)), true);
    std::size_t remaining = 0;
    for (std::size_t p = 0; p < base.num_processes(); ++p)
      remaining += base.events(ProcessId(static_cast<int>(p))).size();
    while (remaining > 0) {
      for (std::size_t p = 0; p < base.num_processes(); ++p) {
        const ProcessId pid(static_cast<int>(p));
        const auto events = base.events(pid);
        while (next[p] < events.size()) {
          const Event& ev = events[next[p]];
          if (ev.kind == EventKind::kSend) {
            remap[static_cast<std::size_t>(ev.msg)] =
                b.send(pid, base.message(ev.msg).to);
          } else {
            if (remap[static_cast<std::size_t>(ev.msg)] < 0) break;
            b.receive(remap[static_cast<std::size_t>(ev.msg)]);
          }
          const StateIndex ns = static_cast<StateIndex>(next[p]) + 2;
          if (base.local_pred(pid, ns)) b.mark_pred(pid, true);
          ++next[p];
          --remaining;
        }
      }
    }
    const auto comp = b.build();
    const auto oracle = comp.first_wcp_cut();
    const auto tok = detect_token_vc_offline(comp);
    ASSERT_EQ(tok.detected, oracle.has_value()) << "seed " << seed;
    if (oracle) {
      EXPECT_EQ(tok.cut, *oracle) << "seed " << seed;
    }
    const auto online = run_token_vc(comp, opts(seed + 1));
    EXPECT_EQ(online.detected, tok.detected) << "seed " << seed;
    EXPECT_EQ(online.cut, tok.cut) << "seed " << seed;
  }
}

TEST(EdgeCases, ProcessWithNoEvents) {
  // P1 has a single state and never communicates.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(1), true);
  b.send(ProcessId(0), ProcessId(1));  // undelivered
  b.mark_pred(ProcessId(0), true);     // P0 state 2
  const auto comp = b.build();
  const auto oracle = comp.first_wcp_cut();
  ASSERT_TRUE(oracle.has_value());
  EXPECT_EQ(*oracle, (std::vector<StateIndex>{2, 1}));
  EXPECT_EQ(run_token_vc(comp, opts()).cut, *oracle);
  EXPECT_EQ(run_direct_dep(comp, opts()).cut, *oracle);
}

TEST(EdgeCases, DetectionAtTheVeryLastStates) {
  // True only in the final states of a long exchange.
  ComputationBuilder b(2);
  for (int i = 0; i < 20; ++i) {
    b.transfer(ProcessId(0), ProcessId(1));
    b.transfer(ProcessId(1), ProcessId(0));
  }
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto oracle = comp.first_wcp_cut();
  ASSERT_TRUE(oracle.has_value());
  for (auto [algo, r] :
       {std::pair{"token", run_token_vc(comp, opts())},
        std::pair{"dd", run_direct_dep(comp, opts())},
        std::pair{"checker", run_centralized(comp, opts())}}) {
    ASSERT_TRUE(r.detected) << algo;
    EXPECT_EQ(r.cut, *oracle) << algo;
  }
}

TEST(EdgeCases, FullyConnectedChatter) {
  // Dense all-pairs communication: lots of eliminations everywhere.
  ComputationBuilder b(4);
  for (int round = 0; round < 4; ++round)
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        if (i != j) b.transfer(ProcessId(i), ProcessId(j));
  for (int i = 0; i < 4; ++i) b.mark_pred(ProcessId(i), true);
  const auto comp = b.build();
  const auto oracle = comp.first_wcp_cut();
  ASSERT_TRUE(oracle.has_value());
  EXPECT_EQ(run_token_vc(comp, opts()).cut, *oracle);
  EXPECT_EQ(run_direct_dep(comp, opts()).cut, *oracle);
  MultiTokenOptions mt;
  mt.num_groups = 2;
  EXPECT_EQ(run_multi_token(comp, opts(), mt).cut, *oracle);
}

TEST(EdgeCases, WidthOnePredicateAllAlgorithms) {
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(1)});
  b.transfer(ProcessId(0), ProcessId(1));
  b.transfer(ProcessId(1), ProcessId(2));
  b.mark_pred(ProcessId(1), true);  // state 3
  const auto comp = b.build();
  const std::vector<StateIndex> expect{3};
  EXPECT_EQ(run_token_vc(comp, opts()).cut, expect);
  EXPECT_EQ(run_centralized(comp, opts()).cut, expect);
  EXPECT_EQ(run_direct_dep(comp, opts()).cut, expect);
  EXPECT_EQ(detect_token_vc_offline(comp).cut, expect);
  EXPECT_EQ(detect_direct_dep_offline(comp).cut, expect);
}

}  // namespace
}  // namespace wcp::detect

#include "detect/lattice.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

TEST(Lattice, DetectsTrivialInitialCut) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = detect_lattice(comp);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
  EXPECT_EQ(r.cuts_explored, 1);
}

TEST(Lattice, FindsTheMinimalWcpCut) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 4;
    spec.num_predicate = 4;
    spec.events_per_process = 10;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto expect = comp.first_wcp_cut();
    const auto r = detect_lattice(comp);
    ASSERT_EQ(r.detected, expect.has_value()) << "seed " << seed;
    if (expect) {
      EXPECT_EQ(r.cut, *expect) << "seed " << seed;
    }
  }
}

TEST(Lattice, NotDetectedExploresWholeLattice) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);  // P1 never true
  b.transfer(ProcessId(0), ProcessId(1));
  const auto comp = b.build();
  const auto r = detect_lattice(comp);
  EXPECT_FALSE(r.detected);
  EXPECT_FALSE(r.truncated);
  // P0 has 2 states, P1 has 2 states; consistent cuts: (1,1),(2,1),(2,2)
  // — (1,2) is inconsistent because (0,1) -> (1,2).
  EXPECT_EQ(r.cuts_explored, 3);
}

TEST(Lattice, ExplorationBlowupOnIndependentProcesses) {
  // No communication: every cut is consistent, lattice size = (m+1)^n.
  // With the predicate true only in the last states, BFS must visit the
  // whole lattice below the top.
  ComputationBuilder b2(3);
  // Each process gets 4 states via sends that are never received (sends
  // create causality only when delivered), so all states stay concurrent.
  for (int p = 0; p < 3; ++p)
    for (int k = 0; k < 3; ++k)
      b2.send(ProcessId(p), ProcessId((p + 1) % 3));  // never received
  for (int p = 0; p < 3; ++p) b2.mark_pred(ProcessId(p), true);  // state 4
  const auto comp = b2.build();
  const auto r = detect_lattice(comp);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{4, 4, 4}));
  // 4^3 = 64 cuts; BFS in level order visits every cut of level < 12 plus
  // the top: all 64.
  EXPECT_EQ(r.cuts_explored, 64);
}

TEST(Lattice, TruncationCapRespected) {
  ComputationBuilder b(2);
  for (int k = 0; k < 6; ++k) b.send(ProcessId(0), ProcessId(1));
  const auto comp = b.build();  // predicate never true: full exploration
  const auto r = detect_lattice(comp, /*max_cuts=*/5);
  EXPECT_FALSE(r.detected);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.cuts_explored, 5);
}

TEST(Lattice, FrontierTracked) {
  ComputationBuilder b(2);
  b.send(ProcessId(0), ProcessId(1));
  b.send(ProcessId(1), ProcessId(0));
  const auto comp = b.build();
  const auto r = detect_lattice(comp);
  EXPECT_GE(r.max_frontier, 1);
}

TEST(Lattice, ThreadsZeroResolvesToDefault) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = detect_lattice(comp, -1, /*threads=*/0);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
}

TEST(Lattice, ThreadsZeroStillValidatesWcpThreads) {
  // threads is accepted and thread-invariant, but 0 still resolves the
  // process default: a malformed WCP_THREADS must fail closed, not be
  // silently ignored.
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  ::setenv("WCP_THREADS", "O8", 1);
  EXPECT_THROW(detect_lattice(comp, -1, /*threads=*/0), std::invalid_argument);
  EXPECT_THROW(detect_definitely(comp, -1, /*threads=*/0),
               std::invalid_argument);
  EXPECT_NO_THROW(detect_lattice(comp, -1, /*threads=*/1));
  ::unsetenv("WCP_THREADS");
}

}  // namespace
}  // namespace wcp::detect

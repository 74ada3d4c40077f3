// Exhaustive differential testing over a small universe: EVERY two-process
// computation with up to 3 messages (in every causally valid delivery
// arrangement) crossed with EVERY local-predicate assignment, checked
// against the brute-force oracle with every detector. Thousands of distinct
// cases — if any algorithm mishandles an edge structure, this finds it.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "detect/centralized.h"
#include "detect/direct_dep.h"
#include "detect/lattice.h"
#include "detect/multi_token.h"
#include "detect/offline.h"
#include "detect/token_vc.h"

namespace wcp::detect {
namespace {

// A message plan: sender (0/1) and whether it is delivered. Receives happen
// in plan order interleaved as late as possible... we enumerate explicit
// schedules instead: each schedule is a sequence of actions:
//   0 = P0 sends to P1, 1 = P1 sends to P0,
//   2 = P1 receives oldest pending from P0, 3 = P0 receives oldest from P1.
// A schedule is valid if receives have matching pending sends.
void enumerate_schedules(std::size_t max_len, std::vector<int>& cur,
                         int pending01, int pending10,
                         std::vector<std::vector<int>>& out) {
  out.push_back(cur);
  if (cur.size() >= max_len) return;
  for (int action = 0; action < 4; ++action) {
    if (action == 2 && pending01 == 0) continue;
    if (action == 3 && pending10 == 0) continue;
    cur.push_back(action);
    enumerate_schedules(max_len, cur,
                        pending01 + (action == 0 ? 1 : action == 2 ? -1 : 0),
                        pending10 + (action == 1 ? 1 : action == 3 ? -1 : 0),
                        out);
    cur.pop_back();
  }
}

Computation build_case(const std::vector<int>& schedule, unsigned pred_bits,
                       std::size_t total_states) {
  (void)total_states;
  ComputationBuilder b2(2);
  std::vector<MessageId> r01, r10;
  std::size_t g01 = 0, g10 = 0;
  std::size_t bit = 0;
  // Predicate truth per state from the bitmask; bit order: the two initial
  // states, then one state per scheduled event.
  auto mark = [&](ProcessId p) {
    b2.mark_pred(p, ((pred_bits >> bit++) & 1u) != 0);
  };
  mark(ProcessId(0));  // initial state P0
  mark(ProcessId(1));  // initial state P1
  for (int action : schedule) {
    switch (action) {
      case 0:
        r01.push_back(b2.send(ProcessId(0), ProcessId(1)));
        mark(ProcessId(0));
        break;
      case 1:
        r10.push_back(b2.send(ProcessId(1), ProcessId(0)));
        mark(ProcessId(1));
        break;
      case 2:
        b2.receive(r01[g01++]);
        mark(ProcessId(1));
        break;
      case 3:
        b2.receive(r10[g10++]);
        mark(ProcessId(0));
        break;
    }
  }
  return b2.build();
}

TEST(ExhaustiveSmall, AllDetectorsMatchOracleOnEveryTinyCase) {
  std::vector<std::vector<int>> schedules;
  std::vector<int> cur;
  enumerate_schedules(/*max_len=*/4, cur, 0, 0, schedules);

  std::int64_t cases = 0, detected_cases = 0;
  for (const auto& schedule : schedules) {
    const std::size_t total_states = 2 + schedule.size();
    const unsigned combos = 1u << total_states;
    for (unsigned bits = 0; bits < combos; ++bits) {
      const Computation comp = build_case(schedule, bits, total_states);
      const auto oracle = comp.first_wcp_cut();
      ++cases;
      if (oracle) ++detected_cases;

      const auto lat = detect_lattice(comp);
      ASSERT_EQ(lat.detected, oracle.has_value()) << "case " << cases;
      if (oracle) {
        ASSERT_EQ(lat.cut, *oracle) << "case " << cases;
      }

      const auto tok = detect_token_vc_offline(comp);
      ASSERT_EQ(tok.detected, oracle.has_value()) << "case " << cases;
      if (oracle) {
        ASSERT_EQ(tok.cut, *oracle) << "case " << cases;
      }

      const auto dd = detect_direct_dep_offline(comp);
      ASSERT_EQ(dd.detected, oracle.has_value()) << "case " << cases;
      if (oracle) {
        ASSERT_EQ(dd.cut, *oracle) << "case " << cases;
      }
    }
  }
  // Sanity on the universe size: both outcomes occur, in bulk.
  EXPECT_GT(cases, 3000);
  EXPECT_GT(detected_cases, 800);
  EXPECT_GT(cases - detected_cases, 800);
}

TEST(ExhaustiveSmall, OnlineDetectorsMatchOnSampledTinyCases) {
  // Online runs are slower; sample the same universe (every 7th predicate
  // assignment) across all schedules.
  std::vector<std::vector<int>> schedules;
  std::vector<int> cur;
  enumerate_schedules(/*max_len=*/4, cur, 0, 0, schedules);

  RunOptions o;
  o.seed = 3;
  o.latency = sim::LatencyModel::uniform(1, 4);

  int cases = 0;
  for (const auto& schedule : schedules) {
    const std::size_t total_states = 2 + schedule.size();
    const unsigned combos = 1u << total_states;
    for (unsigned bits = 0; bits < combos; bits += 7) {
      const Computation comp = build_case(schedule, bits, total_states);
      const auto oracle = comp.first_wcp_cut();
      ++cases;

      const auto tok = run_token_vc(comp, o);
      ASSERT_EQ(tok.detected, oracle.has_value())
          << "case " << cases << " bits " << bits;
      if (oracle) {
        ASSERT_EQ(tok.cut, *oracle) << "case " << cases;
      }

      const auto dd = run_direct_dep(comp, o);
      ASSERT_EQ(dd.detected, oracle.has_value()) << "case " << cases;
      if (oracle) {
        ASSERT_EQ(dd.cut, *oracle) << "case " << cases;
      }

      const auto chk = run_centralized(comp, o);
      ASSERT_EQ(chk.detected, oracle.has_value()) << "case " << cases;
      if (oracle) {
        ASSERT_EQ(chk.cut, *oracle) << "case " << cases;
      }
    }
  }
  EXPECT_GT(cases, 400);
}

TEST(ExhaustiveSmall, EverySingleWireDropIsSurvived) {
  // Single-drop schedule exploration on sampled tiny cases: drop EVERY
  // individual wire transmission in turn — data frames, retransmits, and
  // acks alike, addressed by exact raw-send index — and check the token
  // detector still reaches the fault-free verdict and cut. The fault Rng is
  // untouched until the indexed transmission, so run k is bit-identical to
  // the baseline up to the drop; the reliable transport must recover the
  // rest.
  std::vector<std::vector<int>> schedules;
  std::vector<int> cur;
  enumerate_schedules(/*max_len=*/4, cur, 0, 0, schedules);

  RunOptions o;
  o.seed = 3;
  o.latency = sim::LatencyModel::uniform(1, 4);

  int cases = 0;
  std::int64_t drop_runs = 0, retransmits_total = 0;
  for (std::size_t si = 0; si < schedules.size(); si += 7) {
    const auto& schedule = schedules[si];
    const std::size_t total_states = 2 + schedule.size();
    const unsigned combos = 1u << total_states;
    for (unsigned bits = 0; bits < combos; bits += 5) {
      const Computation comp = build_case(schedule, bits, total_states);
      const auto oracle = comp.first_wcp_cut();
      ++cases;

      // Baseline with the transport framed in but an unreachable drop
      // index: its message total IS the raw transmission count, the index
      // space the per-run drops below address.
      RunOptions base = o;
      base.faults.drop_exact = {std::numeric_limits<std::int64_t>::max()};
      const auto r0 = run_token_vc(comp, base);
      ASSERT_EQ(r0.detected, oracle.has_value()) << "case " << cases;
      const std::int64_t sends = r0.app_metrics.total_messages() +
                                 r0.monitor_metrics.total_messages();

      for (std::int64_t k = 0; k < sends; ++k) {
        RunOptions faulty = o;
        faulty.faults.drop_exact = {k};
        const auto r = run_token_vc(comp, faulty);
        ++drop_runs;
        ASSERT_EQ(r.detected, oracle.has_value())
            << "case " << cases << " drop index " << k;
        if (oracle) {
          ASSERT_EQ(r.cut, *oracle) << "case " << cases << " drop index " << k;
        }
        // The indexed transmission really exists and was really dropped.
        // (Retransmission only fires when the loss mattered: a frame
        // dropped after the verdict stops the simulator is never resent.)
        ASSERT_EQ(r.faults.drops_random, 1)
            << "case " << cases << " drop index " << k;
        retransmits_total += r.faults.retransmits;
      }
    }
  }
  EXPECT_GT(cases, 30);
  EXPECT_GT(drop_runs, 1000);
  EXPECT_GT(retransmits_total, drop_runs / 2);
}

}  // namespace
}  // namespace wcp::detect

// Failure-injection / robustness sweep: every online detector must return
// the oracle cut under adversarial delivery conditions — heavy-tailed
// latencies, bimodal delay spikes (simulating retransmits/partition blips),
// with and without global FIFO — because the algorithms only ever assume
// reliable channels plus FIFO app->monitor links (§2, §3.1).
#include <gtest/gtest.h>

#include "detect/centralized.h"
#include "detect/direct_dep.h"
#include "detect/multi_token.h"
#include "detect/token_vc.h"
#include "workload/random_workload.h"
#include "workload/termination_workload.h"

namespace wcp::detect {
namespace {

struct ChaosCase {
  const char* name;
  sim::LatencyModel latency;
  bool fifo_all;
};

class ChaosSweep : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosSweep, AllDetectorsSurvive) {
  const auto& cc = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 4;
    spec.events_per_process = 14;
    spec.local_pred_prob = 0.3;
    spec.seed = seed + 777;
    const auto comp = workload::make_random(spec);
    const auto oracle = comp.first_wcp_cut();
    const auto oracle_full = comp.first_wcp_cut_all_processes();

    RunOptions o;
    o.seed = seed * 13 + 1;
    o.latency = cc.latency;
    o.fifo_all = cc.fifo_all;

    const auto token = run_token_vc(comp, o);
    ASSERT_EQ(token.detected, oracle.has_value())
        << cc.name << " seed " << seed;
    if (oracle) {
      EXPECT_EQ(token.cut, *oracle) << cc.name << " seed " << seed;
    }

    MultiTokenOptions mt;
    mt.num_groups = 2;
    const auto multi = run_multi_token(comp, o, mt);
    EXPECT_EQ(multi.detected, oracle.has_value()) << cc.name;
    if (oracle) {
      EXPECT_EQ(multi.cut, *oracle) << cc.name;
    }

    for (bool parallel : {false, true}) {
      DdRunOptions dd;
      dd.parallel = parallel;
      const auto direct = run_direct_dep(comp, o, dd);
      EXPECT_EQ(direct.detected, oracle.has_value())
          << cc.name << " parallel=" << parallel;
      if (oracle) {
        EXPECT_EQ(direct.full_cut, *oracle_full)
            << cc.name << " parallel=" << parallel;
      }
    }

    const auto checker = run_centralized(comp, o);
    EXPECT_EQ(checker.detected, oracle.has_value()) << cc.name;
    if (oracle) {
      EXPECT_EQ(checker.cut, *oracle) << cc.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, ChaosSweep,
    ::testing::Values(
        ChaosCase{"spiky", sim::LatencyModel::bimodal(1, 0.1, 200), false},
        ChaosCase{"very_spiky", sim::LatencyModel::bimodal(1, 0.3, 500),
                  false},
        ChaosCase{"heavy_tail", sim::LatencyModel::exponential(40.0), false},
        ChaosCase{"spiky_fifo", sim::LatencyModel::bimodal(2, 0.2, 300),
                  true},
        ChaosCase{"wide_uniform", sim::LatencyModel::uniform(1, 100), false}),
    [](const auto& info) { return info.param.name; });

TEST(Chaos, SlowDetectionOverlayStillCorrect) {
  // Monitor-layer latency 100x the application's: detection lags far behind
  // the application but must still land on the first cut.
  workload::TerminationSpec tspec;
  tspec.num_processes = 4;
  tspec.initial_work = 3;
  tspec.seed = 6;
  const auto t = workload::make_termination(tspec);
  const auto oracle = t.computation.first_wcp_cut();
  ASSERT_TRUE(oracle.has_value());

  RunOptions o;
  o.seed = 3;
  o.latency = sim::LatencyModel::fixed_delay(1);
  o.monitor_latency = sim::LatencyModel::fixed_delay(100);
  const auto token = run_token_vc(t.computation, o);
  ASSERT_TRUE(token.detected);
  EXPECT_EQ(token.cut, *oracle);
  const auto direct = run_direct_dep(t.computation, o);
  ASSERT_TRUE(direct.detected);
  EXPECT_EQ(direct.cut, *oracle);
}

TEST(Chaos, FaultPlanPresetsKeepEveryDetectorOnTheOracle) {
  // The real chaos axis: the presets from sim/fault.h actively drop,
  // duplicate, and burst-lose wire traffic (the earlier sweeps only warp
  // latency). Every detector must stay on the oracle, and the observed
  // fault counters must prove the faults actually happened.
  const struct {
    const char* name;
    sim::FaultPlan plan;
  } presets[] = {
      {"lossy", sim::FaultPlan::lossy(0.2, 5)},
      {"lossy_dup", sim::FaultPlan::lossy_dup(0.2, 0.1, 6)},
      {"flaky", sim::FaultPlan::flaky(7)},
  };

  for (const auto& preset : presets) {
    FaultCounters totals;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      workload::RandomSpec spec;
      spec.num_processes = 6;
      spec.num_predicate = 4;
      spec.events_per_process = 14;
      spec.local_pred_prob = 0.3;
      spec.seed = seed + 333;
      const auto comp = workload::make_random(spec);
      const auto oracle = comp.first_wcp_cut();
      const auto oracle_full = comp.first_wcp_cut_all_processes();

      RunOptions o;
      o.seed = seed * 11 + 2;
      o.latency = sim::LatencyModel::uniform(1, 8);
      o.faults = preset.plan;
      o.faults.seed += seed * 101;

      const auto token = run_token_vc(comp, o);
      ASSERT_EQ(token.detected, oracle.has_value())
          << preset.name << " seed " << seed;
      if (oracle) {
        EXPECT_EQ(token.cut, *oracle) << preset.name << " seed " << seed;
      }
      totals.merge(token.faults);

      MultiTokenOptions mt;
      mt.num_groups = 2;
      const auto multi = run_multi_token(comp, o, mt);
      ASSERT_EQ(multi.detected, oracle.has_value()) << preset.name;
      if (oracle) {
        EXPECT_EQ(multi.cut, *oracle) << preset.name;
      }
      totals.merge(multi.faults);

      const auto direct = run_direct_dep(comp, o);
      ASSERT_EQ(direct.detected, oracle.has_value()) << preset.name;
      if (oracle) {
        EXPECT_EQ(direct.full_cut, *oracle_full) << preset.name;
      }
      totals.merge(direct.faults);

      const auto checker = run_centralized(comp, o);
      ASSERT_EQ(checker.detected, oracle.has_value()) << preset.name;
      if (oracle) {
        EXPECT_EQ(checker.cut, *oracle) << preset.name;
      }
      totals.merge(checker.faults);
    }

    // The preset was not a no-op: loss happened and was repaired.
    EXPECT_GT(totals.drops_random, 0) << preset.name;
    EXPECT_GT(totals.retransmits, 0) << preset.name;
    EXPECT_GT(totals.acks, 0) << preset.name;
    if (preset.plan.dup > 0) {
      EXPECT_GT(totals.dups, 0) << preset.name;
      EXPECT_GT(totals.dup_suppressed, 0) << preset.name;
    }
    if (!preset.plan.bursts.empty()) {
      EXPECT_GT(totals.drops_burst, 0) << preset.name;
    }
  }
}

TEST(Chaos, LatencySeedNeverChangesTheAnswer) {
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 5;
  spec.events_per_process = 16;
  spec.local_pred_prob = 0.3;
  spec.seed = 42;
  const auto comp = workload::make_random(spec);
  const auto oracle = comp.first_wcp_cut();
  for (std::uint64_t netseed = 0; netseed < 20; ++netseed) {
    RunOptions o;
    o.seed = netseed;
    o.latency = sim::LatencyModel::bimodal(1, 0.15, 120);
    const auto r = run_token_vc(comp, o);
    ASSERT_EQ(r.detected, oracle.has_value()) << "netseed " << netseed;
    if (oracle) {
      EXPECT_EQ(r.cut, *oracle) << "netseed " << netseed;
    }
  }
}

}  // namespace
}  // namespace wcp::detect

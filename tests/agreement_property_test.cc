// Invariant I4 (DESIGN.md): every detector — single-token, multi-token,
// serial and parallel direct-dependence, centralized checker, lattice
// baseline — agrees exactly with the offline oracle on the first WCP cut,
// across randomized computations and both domain workloads.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "detect/centralized.h"
#include "detect/direct_dep.h"
#include "detect/lattice.h"
#include "detect/multi_token.h"
#include "detect/token_vc.h"
#include "workload/db_workload.h"
#include "workload/mutex_workload.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 8);
  return o;
}

void expect_all_agree(const Computation& comp, std::uint64_t seed,
                      const std::string& label) {
  const auto oracle = comp.first_wcp_cut();
  const auto oracle_full = comp.first_wcp_cut_all_processes();
  // Consistency between the two oracles: the full cut projects onto the
  // predicate cut.
  ASSERT_EQ(oracle.has_value(), oracle_full.has_value()) << label;
  if (oracle) {
    const auto preds = comp.predicate_processes();
    for (std::size_t s = 0; s < preds.size(); ++s)
      ASSERT_EQ((*oracle_full)[preds[s].idx()], (*oracle)[s]) << label;
  }

  const auto token = run_token_vc(comp, opts(seed));
  EXPECT_EQ(token.detected, oracle.has_value()) << label << " [token-vc]";
  if (oracle) {
    EXPECT_EQ(token.cut, *oracle) << label << " [token-vc]";
  }

  for (int g : {2, 3}) {
    MultiTokenOptions mt;
    mt.num_groups = g;
    const auto multi = run_multi_token(comp, opts(seed), mt);
    EXPECT_EQ(multi.detected, oracle.has_value())
        << label << " [multi-token g=" << g << "]";
    if (oracle) {
      EXPECT_EQ(multi.cut, *oracle) << label << " [multi-token g=" << g << "]";
    }
  }

  for (bool parallel : {false, true}) {
    DdRunOptions dd;
    dd.parallel = parallel;
    const auto direct = run_direct_dep(comp, opts(seed), dd);
    EXPECT_EQ(direct.detected, oracle.has_value())
        << label << " [direct-dep parallel=" << parallel << "]";
    if (oracle) {
      EXPECT_EQ(direct.cut, *oracle)
          << label << " [direct-dep parallel=" << parallel << "]";
      EXPECT_EQ(direct.full_cut, *oracle_full)
          << label << " [direct-dep parallel=" << parallel << "]";
    }
  }

  const auto checker = run_centralized(comp, opts(seed));
  EXPECT_EQ(checker.detected, oracle.has_value()) << label << " [checker]";
  if (oracle) {
    EXPECT_EQ(checker.cut, *oracle) << label << " [checker]";
  }

  const auto lattice = detect_lattice(comp, /*max_cuts=*/2'000'000);
  ASSERT_FALSE(lattice.truncated) << label;
  EXPECT_EQ(lattice.detected, oracle.has_value()) << label << " [lattice]";
  if (oracle) {
    EXPECT_EQ(lattice.cut, *oracle) << label << " [lattice]";
  }
}

struct SweepCase {
  std::size_t N;
  std::size_t n;
  std::int64_t events;
  double pred_prob;
};

class AgreementSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AgreementSweep, AllDetectorsAgreeWithOracle) {
  const auto& c = GetParam();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = c.N;
    spec.num_predicate = c.n;
    spec.events_per_process = c.events;
    spec.local_pred_prob = c.pred_prob;
    spec.random_predicate_subset = (seed % 2 == 1);
    spec.seed = seed * 1000 + c.N;
    const auto comp = workload::make_random(spec);
    std::ostringstream label;
    label << "N=" << c.N << " n=" << c.n << " seed=" << seed;
    expect_all_agree(comp, seed + 1, label.str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AgreementSweep,
    ::testing::Values(SweepCase{2, 2, 10, 0.3},   // minimal
                      SweepCase{4, 4, 15, 0.3},   // n == N
                      SweepCase{6, 3, 15, 0.3},   // relays involved
                      SweepCase{8, 2, 12, 0.4},   // tiny predicate, many relays
                      SweepCase{5, 5, 30, 0.1},   // sparse predicate truth
                      SweepCase{5, 5, 8, 0.9},    // dense predicate truth
                      SweepCase{10, 5, 10, 0.25}  // wider system
                      ));

TEST(Agreement, MutexWorkload) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    workload::MutexSpec spec;
    spec.num_clients = 3;
    spec.rounds_per_client = 5;
    spec.violation_prob = 0.3;
    spec.seed = seed;
    const auto mc = workload::make_mutex(spec);
    expect_all_agree(mc.computation, seed + 1,
                     "mutex seed=" + std::to_string(seed));
  }
}

TEST(Agreement, DbWorkload) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    workload::DbSpec spec;
    spec.num_readers = 2;
    spec.num_writers = 2;
    spec.rounds = 5;
    spec.violation_prob = 0.3;
    spec.seed = seed;
    const auto db = workload::make_db(spec);
    expect_all_agree(db.computation, seed + 1,
                     "db seed=" + std::to_string(seed));
  }
}

TEST(Agreement, UndeliveredMessagesDoNotBreakDetectors) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 4;
    spec.events_per_process = 12;
    spec.local_pred_prob = 0.35;
    spec.drain_prob = 0.5;  // leave messages in flight at the end
    spec.seed = seed + 400;
    const auto comp = workload::make_random(spec);
    expect_all_agree(comp, seed + 1,
                     "undelivered seed=" + std::to_string(seed));
  }
}

TEST(Agreement, RobustToFifoEverywhereAndHeavyJitter) {
  // The algorithms require only app->monitor FIFO; they must behave
  // identically under global FIFO and under heavy-tailed latency.
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 4;
  spec.events_per_process = 15;
  spec.local_pred_prob = 0.3;
  spec.seed = 7;
  const auto comp = workload::make_random(spec);
  const auto oracle = comp.first_wcp_cut();

  for (bool fifo_all : {false, true}) {
    for (auto lat : {sim::LatencyModel::fixed_delay(1),
                     sim::LatencyModel::uniform(1, 40),
                     sim::LatencyModel::exponential(15.0)}) {
      RunOptions o;
      o.seed = 5;
      o.fifo_all = fifo_all;
      o.latency = lat;
      const auto token = run_token_vc(comp, o);
      const auto direct = run_direct_dep(comp, o);
      EXPECT_EQ(token.detected, oracle.has_value());
      EXPECT_EQ(direct.detected, oracle.has_value());
      if (oracle) {
        EXPECT_EQ(token.cut, *oracle);
        EXPECT_EQ(direct.cut, *oracle);
      }
    }
  }
}

}  // namespace
}  // namespace wcp::detect

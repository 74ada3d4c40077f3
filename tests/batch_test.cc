// The batch sweep runner (detect/batch.h): rows must be independent of the
// sweep's thread count and must match what direct detector calls and the
// algorithm table's run records (detect/algo.h) produce.
#include "detect/batch.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "detect/algo.h"
#include "detect/lattice.h"
#include "detect/sliced.h"
#include "detect/token_vc.h"
#include "trace/trace_io.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

Computation make_case(std::uint64_t seed) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 3;
  spec.events_per_process = 15;
  spec.local_pred_prob = 0.3;
  spec.ensure_detectable = true;
  spec.seed = seed;
  return workload::make_random(spec);
}

TEST(Batch, CrossJobsEnumeratesAlgosMajor) {
  const auto jobs = cross_jobs({"a", "b"}, {1, 2, 3});
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].algo, "a");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[2].seed, 3u);
  EXPECT_EQ(jobs[3].algo, "b");
}

TEST(Batch, RowsIndependentOfThreadCount) {
  const auto comp = make_case(5);
  const auto jobs = cross_jobs(
      {"token", "dd", "lattice", "lattice-sliced", "definitely", "oracle"},
      {1, 2});
  const auto serial = run_sweep(comp, jobs, /*threads=*/1);
  ASSERT_EQ(serial.size(), jobs.size());
  for (std::size_t threads : {2u, 8u}) {
    const auto par = run_sweep(comp, jobs, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].algo, serial[i].algo) << "row " << i;
      EXPECT_EQ(par[i].seed, serial[i].seed) << "row " << i;
      EXPECT_EQ(par[i].verdict, serial[i].verdict) << "row " << i;
      EXPECT_EQ(par[i].cut, serial[i].cut) << "row " << i;
      EXPECT_EQ(par[i].cost, serial[i].cost) << "row " << i;
      EXPECT_EQ(par[i].report, serial[i].report) << "row " << i;
    }
  }
}

/// The first random run (seeds 1, 2, ...) on which the WCP never holds.
Computation undetectable_case() {
  for (std::uint64_t seed = 1;; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 3;
    spec.events_per_process = 15;
    spec.local_pred_prob = 0.1;
    spec.seed = seed;
    auto comp = workload::make_random(spec);
    if (!comp.first_wcp_cut()) return comp;
  }
}

/// The `metrics` object of a wcp-run-report/1 record, re-serialized.
std::string report_metrics(const std::string& report) {
  const auto doc = json::parse(report);
  if (!doc || doc->find("metrics") == nullptr) return "unparsable";
  return doc->find("metrics")->dump(0);
}

TEST(Batch, RowsMatchDirectDetectorCalls) {
  const auto comp = make_case(7);
  const auto rows = run_sweep(
      comp, cross_jobs({"lattice", "lattice-sliced", "token"}, {3}), 2);
  ASSERT_EQ(rows.size(), 3u);

  const auto lat = detect_lattice(comp, 10'000'000);
  EXPECT_EQ(rows[0].verdict, lat.detected);
  EXPECT_EQ(rows[0].cut, lat.cut);
  EXPECT_EQ(rows[0].cost, lat.cuts_explored);

  const auto sliced = detect_lattice_sliced(comp);
  EXPECT_EQ(rows[1].verdict, sliced.detected);
  EXPECT_EQ(rows[1].cut, sliced.cut);

  RunOptions o;
  o.seed = 3;
  o.latency = sim::LatencyModel::uniform(1, 6);
  const auto tok = run_token_vc(comp, o);
  EXPECT_EQ(rows[2].verdict, tok.detected);
  EXPECT_EQ(rows[2].cut, tok.cut);

  // The two possibly-family detectors agree on the same trace — the
  // cross-check the randomized suites lean on.
  EXPECT_EQ(rows[0].verdict, rows[1].verdict);
  EXPECT_EQ(rows[0].cut, rows[1].cut);

  // Every table entry, on a detectable and an undetectable trace: the
  // detecting families find the oracle's cut, the definitely family agrees
  // with detect_definitely, and each sweep row reports the metrics of the
  // run record `wcp_cli detect --json` renders for the same name and seed.
  std::vector<std::string> names;
  for (const AlgoEntry& e : algos()) names.emplace_back(e.name);
  ASSERT_EQ(names.size(), 11u);
  for (const Computation& c : {make_case(7), undetectable_case()}) {
    const auto want = c.first_wcp_cut();
    const bool definitely = detect_definitely(c, 10'000'000).definitely;
    const auto table_rows = run_sweep(c, cross_jobs(names, {3}), 2);
    ASSERT_EQ(table_rows.size(), names.size());
    for (const SweepRow& row : table_rows) {
      const AlgoEntry& entry = algo(row.algo);
      if (entry.family == AlgoFamily::kDefinitely) {
        EXPECT_EQ(row.verdict, definitely) << row.algo;
      } else {
        EXPECT_EQ(row.verdict, want.has_value()) << row.algo;
        EXPECT_EQ(row.cut, want.value_or(std::vector<StateIndex>{}))
            << row.algo;
      }
      AlgoOptions opts;
      opts.run.seed = 3;
      std::ostringstream cli;
      json::Writer w(cli);
      run_algo(row.algo, c, opts).write_report(w, "cli:" + row.algo, false);
      EXPECT_EQ(report_metrics(row.report), report_metrics(cli.str()))
          << row.algo;
    }
  }
}

/// Everything one reader asks of a shared computation.
struct CausalityAnswers {
  std::vector<StateIndex> clock_components;
  std::vector<char> happened_before;
  std::optional<std::vector<StateIndex>> first_cut;

  friend bool operator==(const CausalityAnswers&,
                         const CausalityAnswers&) = default;
};

CausalityAnswers ask(const Computation& c) {
  CausalityAnswers a;
  const std::size_t N = c.num_processes();
  for (std::size_t i = 0; i < N; ++i) {
    const ProcessId pi(static_cast<int>(i));
    for (StateIndex x = 1; x <= c.num_states(pi); ++x)
      for (std::size_t j = 0; j < N; ++j) {
        const ProcessId pj(static_cast<int>(j));
        a.clock_components.push_back(c.clock_component(pi, x, pj));
        for (StateIndex y = 1; y <= c.num_states(pj); ++y)
          a.happened_before.push_back(c.happened_before(pi, x, pj, y) ? 1 : 0);
      }
  }
  a.first_cut = c.first_wcp_cut();
  return a;
}

// A freshly built computation, from the builder or from trace text, is safe
// to share across threads with no warm-up call: its store is complete when
// build() returns, so concurrent readers never race to create it.
TEST(Batch, FreshComputationIsSafeToShare) {
  const std::string text = trace_to_string(make_case(7));
  for (const bool from_text : {false, true}) {
    const auto fresh = [&] {
      return from_text ? trace_from_string(text) : make_case(7);
    };
    const CausalityAnswers want = ask(fresh());
    const Computation shared = fresh();  // no call before the fan-out
    std::vector<CausalityAnswers> got(4);
    std::vector<std::thread> lanes;
    for (std::size_t i = 0; i < got.size(); ++i)
      lanes.emplace_back([&, i] { got[i] = ask(shared); });
    for (std::thread& t : lanes) t.join();
    for (const CausalityAnswers& g : got) EXPECT_TRUE(g == want) << from_text;
  }
}

TEST(Batch, UnknownAlgoThrows) {
  const auto comp = make_case(1);
  EXPECT_THROW(run_sweep(comp, {{SweepJob{"nope", 1}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(run_algo("nope", comp, AlgoOptions{}), std::invalid_argument);
  EXPECT_EQ(find_algo("nope"), nullptr);
}

TEST(Batch, UnknownAlgoThrowsBeforeAnyJobRuns) {
  // The names are checked before the sweep sizes its pool: with a
  // malformed WCP_THREADS the unknown name, not the thread count, is what
  // fails, so no job of the sweep has run.
  const auto comp = make_case(1);
  ::setenv("WCP_THREADS", "O8", 1);
  std::string what;
  try {
    (void)run_sweep(comp, cross_jobs({"token", "bogus"}, {1}), 0);
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  ::unsetenv("WCP_THREADS");
  EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
}

}  // namespace
}  // namespace wcp::detect

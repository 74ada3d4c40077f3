#include "detect/batch.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "detect/centralized.h"
#include "detect/direct_dep.h"
#include "detect/lattice.h"
#include "detect/lattice_online.h"
#include "detect/multi_token.h"
#include "detect/report.h"
#include "detect/sliced.h"
#include "detect/token_vc.h"

namespace wcp::detect {

namespace {

ReportParams sweep_params(const Computation& comp, std::uint64_t seed) {
  ReportParams rp;
  rp.N = static_cast<std::int64_t>(comp.num_processes());
  rp.n = static_cast<std::int64_t>(comp.predicate_processes().size());
  rp.m = comp.max_messages_per_process();
  rp.seed = seed;
  return rp;
}

std::string flat_report(std::string_view bench, const ReportParams& rp,
                        const std::vector<std::pair<std::string, MetricValue>>&
                            metrics) {
  std::ostringstream oss;
  json::Writer w(oss, 0);
  write_run_report(w, bench, rp, metrics, std::nullopt, std::nullopt);
  return oss.str();
}

SweepRow run_one(const Computation& comp, const SweepJob& job) {
  SweepRow row;
  row.algo = job.algo;
  row.seed = job.seed;
  const ReportParams rp = sweep_params(comp, job.seed);
  const std::string bench = "sweep:" + job.algo;

  const auto lattice_row = [&](bool detected,
                               const std::vector<StateIndex>& cut,
                               std::int64_t cuts_explored,
                               std::int64_t max_frontier, bool truncated) {
    row.verdict = detected;
    row.cut = cut;
    row.cost = cuts_explored;
    row.report = flat_report(bench, rp,
                             {{"detected", detected ? 1 : 0},
                              {"cuts_explored", cuts_explored},
                              {"max_frontier", max_frontier},
                              {"truncated", truncated ? 1 : 0}});
  };

  if (job.algo == "oracle") {
    const auto cut = comp.first_wcp_cut();
    row.verdict = cut.has_value();
    if (cut) row.cut = *cut;
    row.report = flat_report(bench, rp, {{"detected", cut ? 1 : 0}});
    return row;
  }
  if (job.algo == "lattice") {
    const auto r = detect_lattice(comp, job.max_cuts);
    lattice_row(r.detected, r.cut, r.cuts_explored, r.max_frontier,
                r.truncated);
    return row;
  }
  if (job.algo == "lattice-sliced") {
    const auto r = detect_lattice_sliced(comp);
    lattice_row(r.detected, r.cut, r.cuts_explored, r.max_frontier,
                r.truncated);
    return row;
  }
  if (job.algo == "definitely" || job.algo == "definitely-sliced") {
    const auto r = job.algo == "definitely"
                       ? detect_definitely(comp, job.max_cuts)
                       : detect_definitely_sliced(comp, job.max_cuts);
    row.verdict = r.definitely;
    row.cut = r.witness;
    row.cost = r.cuts_explored;
    row.report =
        flat_report(bench, rp,
                    {{"definitely", r.definitely ? 1 : 0},
                     {"cuts_explored", r.cuts_explored},
                     {"truncated", r.truncated ? 1 : 0},
                     {"witness_found", r.witness.empty() ? 0 : 1}});
    return row;
  }

  RunOptions opts;
  opts.seed = job.seed;
  opts.latency = sim::LatencyModel::uniform(1, 6);

  if (job.algo == "lattice-online") {
    const auto r = run_lattice_online(comp, opts, job.max_cuts);
    lattice_row(r.detected, r.cut, r.cuts_explored, r.max_frontier,
                r.truncated);
    return row;
  }

  DetectionResult r;
  if (job.algo == "token") {
    r = run_token_vc(comp, opts);
  } else if (job.algo == "multi") {
    MultiTokenOptions mt;
    mt.num_groups = job.groups;
    r = run_multi_token(comp, opts, mt);
  } else if (job.algo == "dd" || job.algo == "dd-par") {
    DdRunOptions dd;
    dd.parallel = (job.algo == "dd-par");
    r = run_direct_dep(comp, opts, dd);
  } else if (job.algo == "checker") {
    r = run_centralized(comp, opts);
  } else {
    WCP_REQUIRE(false, "unknown sweep algo '" + job.algo + "'");
  }
  row.verdict = r.detected;
  row.cut = r.cut;
  row.cost = r.monitor_metrics.total_work();
  row.report = run_report_string(bench, rp, r, std::nullopt, std::nullopt,
                                 /*include_wall_clock=*/false, /*indent=*/0);
  return row;
}

}  // namespace

std::vector<SweepRow> run_sweep(const Computation& comp,
                                const std::vector<SweepJob>& jobs,
                                std::size_t threads) {
  const auto procs = comp.predicate_processes();
  WCP_REQUIRE(!procs.empty(), "empty predicate");
  if (threads == 0) threads = common::ThreadPool::default_threads();
  if (jobs.empty()) return {};
  if (threads <= 1 || jobs.size() == 1) {
    std::vector<SweepRow> rows;
    rows.reserve(jobs.size());
    for (const SweepJob& job : jobs) rows.push_back(run_one(comp, job));
    return rows;
  }
  common::ThreadPool pool(std::min(threads, jobs.size()));
  return pool.parallel_map<SweepRow>(
      jobs.size(), [&](std::size_t i) { return run_one(comp, jobs[i]); },
      /*grain=*/1);
}

std::vector<SweepJob> cross_jobs(const std::vector<std::string>& algos,
                                 const std::vector<std::uint64_t>& seeds) {
  std::vector<SweepJob> jobs;
  jobs.reserve(algos.size() * seeds.size());
  for (const std::string& algo : algos)
    for (std::uint64_t seed : seeds) {
      SweepJob j;
      j.algo = algo;
      j.seed = seed;
      jobs.push_back(std::move(j));
    }
  return jobs;
}

}  // namespace wcp::detect

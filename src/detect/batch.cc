#include "detect/batch.h"

#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "detect/algo.h"

namespace wcp::detect {

namespace {

SweepRow run_one(const Computation& comp, const SweepJob& job) {
  AlgoOptions opts;
  opts.run.seed = job.seed;
  opts.groups = job.groups;
  opts.max_cuts = job.max_cuts;
  AlgoRun run = run_algo(job.algo, comp, opts);
  std::ostringstream report;
  json::Writer w(report, 0);
  run.write_report(w, "sweep:" + job.algo, /*include_wall_clock=*/false);
  return SweepRow{job.algo, job.seed, run.verdict, std::move(run.cut),
                  run.cost, report.str()};
}

}  // namespace

std::vector<SweepRow> run_sweep(const Computation& comp,
                                const std::vector<SweepJob>& jobs,
                                std::size_t threads) {
  const auto procs = comp.predicate_processes();
  WCP_REQUIRE(!procs.empty(), "empty predicate");
  // Unknown names fail before any job runs or any lane starts.
  for (const SweepJob& job : jobs) (void)algo(job.algo);
  if (threads == 0) threads = common::default_threads();
  std::vector<SweepRow> rows(jobs.size());
  common::fan_out(jobs.size(), threads,
                  [&](std::size_t i) { rows[i] = run_one(comp, jobs[i]); });
  return rows;
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

// Batch sweep runner: one trace, many detector runs, executed concurrently.
//
// A sweep is the unit of work the benches and the randomized cross-check
// tests repeat constantly: fix one computation and run a set of
// (algorithm, seed) jobs against it — every detector on one trace, or one
// detector across a seed sweep. Each job is independent (every simulator
// run builds its own sim::Network; the Computation is shared read-only), so
// the jobs fan out across threads (common::fan_out) while the returned rows
// stay in job order, each row byte-identical to what a serial run produces.
//
// Job algorithms are the names of the algorithm table (detect/algo.h), the
// wcp_cli --algo vocabulary; each row renders the table's run record. An
// unknown name fails before any job runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace/computation.h"

namespace wcp::detect {

/// One sweep job: which detector to run and the run seed. The seed drives
/// only simulator latency/pacing; offline detectors (lattice/sliced
/// families, oracle) ignore it but still report it. Each job runs on one
/// thread: a sweep parallelizes across jobs, never inside one.
struct SweepJob {
  std::string algo;
  std::uint64_t seed = 1;
  int groups = 2;                       ///< multi-token group count
  std::int64_t max_cuts = 10'000'000;   ///< lattice/definitely exploration cap
};

/// Outcome of one job, independent of sweep thread count.
struct SweepRow {
  std::string algo;
  std::uint64_t seed = 0;
  /// Detection verdict: detected (possibly family) or definitely.
  bool verdict = false;
  /// Detected cut, slice bottom, or definitely witness; empty when the
  /// algorithm produced none.
  std::vector<StateIndex> cut;
  /// Headline cost: cuts_explored for the offline detectors, monitor work
  /// units for the simulator-hosted ones.
  std::int64_t cost = 0;
  /// Compact wcp-run-report/1 record for the run, wall clock excluded — a
  /// pure function of (computation, algo, seed), so rows from parallel and
  /// serial sweeps compare byte-for-byte. Apart from `bench` and layout it
  /// is the record `wcp_cli detect --json` writes for the same name and
  /// seed, minus that record's wall clock.
  std::string report;
};

/// Runs every job against `comp`. `threads`: 1 = serial, 0 =
/// common::default_threads(), otherwise that many lanes. Rows are returned
/// in job order and are identical for every thread count. Throws
/// std::invalid_argument for an unknown job name before any job runs; a job
/// that throws lets the others finish, then its exception (the first in
/// job order) reaches the caller.
std::vector<SweepRow> run_sweep(const Computation& comp,
                                const std::vector<SweepJob>& jobs,
                                std::size_t threads = 0);

/// Cartesian helper: one job per (algo, seed), algos-major order.
std::vector<SweepJob> cross_jobs(const std::vector<std::string>& algos,
                                 const std::vector<std::uint64_t>& seeds);

}  // namespace wcp::detect

// The algorithm table (kAlgos in algo.cc; docs/ALGORITHMS.md §10a lists
// it): every detector name `wcp_cli detect --algo` and the sweep runner
// accept, mapped in one place to its runner, its report family and the
// paper's work bound.
//
// run_algo returns one AlgoRun record per run: the verdict, the cut, the
// headline cost and the report metrics. `wcp_cli detect` renders it as
// text, a wcp-run-report/1 record or a wcp-verdict/1 line; run_sweep
// renders it as a SweepRow. An unknown name throws std::invalid_argument
// before any work starts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "detect/report.h"
#include "detect/result.h"
#include "trace/computation.h"

namespace wcp::detect {

/// How a run's verdict reads and which metrics its report carries.
enum class AlgoFamily : std::uint8_t {
  kOracle,      ///< the ground-truth first WCP cut
  kPossibly,    ///< possibly(WCP) by lattice or slice exploration
  kDefinitely,  ///< definitely(WCP); the cut is the avoiding witness
  kSimulated,   ///< the paper's message-passing algorithms in sim::Network
};

/// Options of one run; each runner reads the ones that apply to it.
struct AlgoOptions {
  AlgoOptions() { run.latency = sim::LatencyModel::uniform(1, 6); }

  /// Seed, latency, faults and halt for the simulator-hosted runs
  /// (simulated family and lattice-online; AlgoEntry says which honour
  /// faults and halt).
  RunOptions run;
  int groups = 2;                      ///< multi-token group count
  std::int64_t max_cuts = 10'000'000;  ///< lattice/definitely exploration cap
};

struct AlgoEntry;

/// The record of one run.
struct AlgoRun {
  const AlgoEntry* algo = nullptr;
  /// N, n, m, the run seed and the fault spec of a faulty run.
  ReportParams params;
  /// Detected (oracle, possibly, simulated) or definitely (definitely).
  bool verdict = false;
  /// The exploration reached its cap, or the simulated run its event
  /// budget; the verdict is inconclusive.
  bool truncated = false;
  /// The detected cut, or the definitely family's avoiding witness; empty
  /// when the run produced none.
  std::vector<StateIndex> cut;
  /// Headline cost: cuts explored (possibly, definitely) or monitor work
  /// units (simulated); 0 for the oracle.
  std::int64_t cost = 0;
  std::int64_t max_frontier = 0;  ///< possibly: peak exploration frontier
  std::int64_t witness_len = 0;   ///< steps of the witness path, if any
  /// Clock-store footprint when the run read clocks through the store.
  TraceStoreStats trace_store;
  /// The paper's work bound for this run (simulated family, when positive).
  std::optional<double> bound;
  /// The full result of a simulated run.
  std::optional<DetectionResult> sim;

  /// Writes the wcp-run-report/1 record; ratio = cost / bound.
  void write_report(json::Writer& w, std::string_view bench,
                    bool include_wall_clock = true) const;
};

/// One row of the table.
struct AlgoEntry {
  std::string_view name;
  AlgoFamily family;
  /// The paper's work bound from (N, n, m); null when the family has none.
  double (*bound)(const ReportParams& params);
  /// Runs on sim::Network, so RunOptions::faults applies to it.
  bool faults;
  /// Freezes the application on detection under RunOptions::halt_on_detect.
  bool halt;
  AlgoRun (*run)(const Computation& comp, const AlgoOptions& opts);
};

/// Every entry, in the order `wcp_cli` usage lists them.
std::span<const AlgoEntry> algos();

/// The entry named `name`, or null.
const AlgoEntry* find_algo(std::string_view name);

/// The entry named `name`; throws std::invalid_argument naming it otherwise.
const AlgoEntry& algo(std::string_view name);

/// Every name, joined by `sep` (for usage text and error messages).
std::string algo_names(std::string_view sep);

/// Runs `name` on `comp`. Throws std::invalid_argument for an unknown name
/// before any work starts.
AlgoRun run_algo(std::string_view name, const Computation& comp,
                 const AlgoOptions& opts);

/// The report parameters of a run on `comp`: N, n, m and `seed`.
ReportParams report_params(const Computation& comp, std::uint64_t seed);

}  // namespace wcp::detect

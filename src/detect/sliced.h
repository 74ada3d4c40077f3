// Slice-pruned detection — the computation-slicing front end over the
// Cooper-Marzullo baselines in detect/lattice.h.
//
// possibly(WCP): answered from slice non-emptiness. The slice bottom IS the
// pointwise-minimal satisfying cut, so the result is bit-compatible with
// detect_lattice (same LatticeResult, same cut) at O(n^2 m) cost instead of
// O(m^n) lattice exploration. cuts_explored counts candidate states the
// fixpoint eliminated (+1 for the final cut).
//
// definitely(WCP): re-implemented over the slice complement. An observation
// avoids the predicate iff it can chain through *false intervals* — maximal
// runs of predicate-false states — handing the "some slot is false" duty
// from one interval to a concurrent one (the boundary cuts where the
// observation skirts the slice). The search explores only intervals and
// candidate handoff cuts, O(n^2 m^2) worst case, instead of every
// non-satisfying consistent cut. Verdicts match detect_definitely on every
// computation (tests/sliced_detect_test.cc cross-checks exhaustively).
//
// Both keep the old enumerations in detect/lattice.{h,cc} as the reference
// implementations and share LatticeResult/DefinitelyResult with them.
#pragma once

#include <cstdint>

#include "detect/lattice.h"
#include "detect/report.h"
#include "detect/result.h"
#include "slice/online_slicer.h"
#include "slice/slice.h"
#include "trace/computation.h"

namespace wcp::detect {

/// possibly(WCP) from the slice bottom; agrees with detect_lattice.
LatticeResult detect_lattice_sliced(const Computation& comp);

/// definitely(WCP) via the false-interval handoff search. `max_cuts` caps
/// the number of candidate handoff cuts examined (<0: unbounded); on cap
/// the result is inconclusive and truncated is set, mirroring the baseline.
DefinitelyResult detect_definitely_sliced(const Computation& comp,
                                          std::int64_t max_cuts = -1);

/// Outcome of one online slicing run (see slice/online_slicer.h).
struct SliceOnlineResult {
  bool detected = false;
  bool truncated = false;  ///< hit the event budget (network_config)
  std::vector<StateIndex> cut;
  SimTime detect_time = 0;
  std::int64_t states_received = 0;
  std::int64_t jil_advances = 0;   ///< candidate states eliminated online
  std::int64_t clock_lookups = 0;  ///< pairwise consistency probes
  /// Slice of the received stream, built after the run.
  std::int64_t slice_groups = 0;
  std::int64_t slice_edges = 0;
  std::int64_t slice_cuts = 0;  ///< satisfying cuts (capped)
  bool slice_cuts_saturated = false;
  Metrics app_metrics;
  Metrics monitor_metrics;
};

/// Runs the online slicer over a replay of `comp` (mirrors
/// run_lattice_online). `count_cap` bounds the post-run satisfying-cut
/// count.
SliceOnlineResult run_slice_online(const Computation& comp,
                                   const RunOptions& opts,
                                   std::int64_t count_cap = 1'000'000);

/// The slice-specific counters of a run as flat report metrics, ready for
/// write_run_report / bench report_run (schema wcp-run-report/1). Counters
/// are integer-typed so the JSON never renders them in exponent notation.
std::vector<std::pair<std::string, MetricValue>> slice_report_metrics(
    const SliceOnlineResult& r);

}  // namespace wcp::detect

// Cooper–Marzullo style global-state lattice detection — the general
// baseline discussed in §1 of the paper.
//
// Both detectors host the one lattice walk (detect/cut_walk.h) over the
// ground-truth clocks of the predicate processes, in level (breadth-first)
// order. detect_lattice stops at the first cut satisfying the WCP. This
// detects *possibly(phi)* for arbitrary phi; for a WCP the first satisfying
// cut found at the minimal level is exactly the pointwise-minimal cut the
// token algorithms return (satisfying cuts of a conjunction are closed
// under pointwise meet), which the tests exploit. detect_definitely walks
// only the non-satisfying cuts and asks whether the top cut is reachable.
//
// The number of cuts explored can grow as O(m^n) — the cost that motivates
// the paper's algorithms; bench E10 measures the blowup.
//
// The walk is serial: multi-lane exploration never reached its 1.8x gate
// on 4 cores (ALGORITHMS.md §15), and slicing (detect/sliced.h) is what
// beats the O(m^n) cost. The `threads` parameter is kept for the callers
// that still pass it (perfbench/): results are identical for every value,
// and threads == 0 still resolves common::default_threads(), so a
// malformed WCP_THREADS fails closed.
//
// Cut storage: the walk keeps every visited cut in flat arenas
// (common/cut_storage.h) — packed 32-bit components, open-addressing
// dedup tables with precomputed hashes, dense-handle parent vectors. The
// `storage` block of the results reports the measured footprint.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cut_storage.h"
#include "common/types.h"
#include "trace/computation.h"
#include "trace/trace_store_stats.h"

namespace wcp::detect {

/// Clock oracle of the offline lattice hosts (detect/cut_walk.h): the
/// ground-truth clocks of `procs`, in slot order. Complete: every state is
/// there from the start.
struct TraceClocks {
  const Computation& comp;
  std::span<const ProcessId> procs;

  [[nodiscard]] StateIndex last(std::size_t s) const {
    return comp.num_states(procs[s]);
  }
  [[nodiscard]] StateIndex clock(std::size_t s, StateIndex k,
                                 std::size_t t) const {
    return comp.clock_component(procs[s], k, procs[t]);
  }
};

struct LatticeResult {
  bool detected = false;
  /// Reached the exploration cap before finding a satisfying cut.
  bool truncated = false;
  std::vector<StateIndex> cut;       // width n, predicate-slot order
  std::int64_t cuts_explored = 0;    // distinct consistent cuts visited
  std::int64_t max_frontier = 0;     // peak BFS frontier size
  /// When detected: the BFS path from the bottom cut to `cut`, one advanced
  /// slot per step, rebuilt from the stored parent offsets (ltsmin-style) —
  /// the full predecessor cuts are never retained. Expand with
  /// materialize_witness_path.
  std::vector<std::uint32_t> witness_path;
  CutStorageStats storage;           // measured cut-storage footprint
  TraceStoreStats trace_store;       // clock-store footprint
};

/// Explores at most `max_cuts` consistent cuts (<0: unbounded). `threads`
/// is accepted and thread-invariant (see the header comment).
LatticeResult detect_lattice(const Computation& comp,
                             std::int64_t max_cuts = -1,
                             std::size_t threads = 1);

/// Cooper-Marzullo definitely(WCP): true iff EVERY observation (every
/// maximal path through the lattice of consistent cuts) passes through a
/// cut satisfying the WCP. Computed as the complement of reachability of
/// the top cut through non-satisfying cuts only.
struct DefinitelyResult {
  bool definitely = false;
  bool truncated = false;
  std::int64_t cuts_explored = 0;
  /// When definitely == false (and not truncated): a consistent,
  /// non-satisfying cut proving it — the first cut where a discovered
  /// avoiding observation diverges past the pointwise-minimal satisfying
  /// cut. When the predicate never holds at all, every observation avoids
  /// it from the start and the witness is the bottom cut. Empty when
  /// definitely == true or the search was truncated.
  std::vector<StateIndex> witness;
  /// When definitely == false: the avoiding observation as advanced slots
  /// from the bottom cut to the top cut, rebuilt from stored BFS parent
  /// offsets (`witness` is the first cut on it that diverges past the
  /// minimal satisfying cut).
  std::vector<std::uint32_t> witness_path;
  CutStorageStats storage;  ///< measured cut-storage footprint
  TraceStoreStats trace_store;  ///< clock-store footprint
};

DefinitelyResult detect_definitely(const Computation& comp,
                                   std::int64_t max_cuts = -1,
                                   std::size_t threads = 1);

/// Expands a parent-offset witness path into the cut sequence it encodes:
/// result[0] is the bottom cut (all 1s, width n) and result[t+1] advances
/// slot path[t] of result[t] by one state.
std::vector<std::vector<StateIndex>> materialize_witness_path(
    std::size_t n, std::span<const std::uint32_t> path);

}  // namespace wcp::detect

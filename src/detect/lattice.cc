#include "detect/lattice.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "detect/cut_walk.h"

namespace wcp::detect {

namespace {

using Cut = std::vector<StateIndex>;

bool holds_at(const Computation& comp, std::span<const ProcessId> procs,
              const Cut& cut) {
  for (std::size_t s = 0; s < procs.size(); ++s)
    if (!comp.local_pred(procs[s], cut[s])) return false;
  return true;
}

/// When definitely == false, the witness is the first cut on the avoiding
/// path that diverges past the pointwise-minimal satisfying cut (the bottom
/// cut when the predicate never holds). Each path step advances exactly one
/// slot of a previously dominated cut, so only that slot can break the
/// domination — the full cuts never need to be compared.
Cut witness_from_path(const Computation& comp, std::size_t n,
                      std::span<const std::uint32_t> slots) {
  if (const auto min_sat = comp.first_wcp_cut()) {
    Cut cur(n, 1);
    for (const std::uint32_t s : slots) {
      cur[s] += 1;
      if (cur[s] > (*min_sat)[s]) return cur;
    }
  }
  return Cut(n, 1);
}

}  // namespace

LatticeResult detect_lattice(const Computation& comp, std::int64_t max_cuts,
                             std::size_t threads) {
  const auto procs = comp.predicate_processes();
  CutWalk walk(TraceClocks{comp, procs}, procs.size(), max_cuts);
  // Accepted, thread-invariant: 0 still validates WCP_THREADS.
  if (threads == 0) (void)common::default_threads();

  LatticeResult res;
  const WalkStatus status = walk.step([&](const Cut& cut) {
    res.max_frontier = std::max(res.max_frontier, walk.frontier() + 1);
    if (!holds_at(comp, procs, cut)) return Visit::kContinue;
    res.cut = cut;
    return Visit::kStop;
  });
  res.detected = status == WalkStatus::kStopped;
  res.truncated = status == WalkStatus::kTruncated;
  res.cuts_explored = walk.visited();
  if (res.detected) res.witness_path = walk.path();
  res.storage = walk.storage();
  res.trace_store = comp.trace_store_stats();
  return res;
}

DefinitelyResult detect_definitely(const Computation& comp,
                                   std::int64_t max_cuts,
                                   std::size_t threads) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();
  WCP_REQUIRE(n >= 1, "empty predicate");
  if (threads == 0) (void)common::default_threads();

  DefinitelyResult res;
  res.trace_store = comp.trace_store_stats();
  if (holds_at(comp, procs, Cut(n, 1))) {
    // Every observation starts at the bottom cut.
    res.definitely = true;
    res.cuts_explored = 1;
    return res;
  }

  // Search for an observation that AVOIDS the predicate: walk the
  // non-satisfying consistent cuts. If the top cut is reachable, some
  // observation misses the predicate => not definitely.
  Cut top(n);
  for (std::size_t s = 0; s < n; ++s) top[s] = comp.num_states(procs[s]);
  CutWalk walk(TraceClocks{comp, procs}, n, max_cuts);
  const WalkStatus status = walk.step(
      [&](const Cut& cut) {
        return cut == top ? Visit::kStop : Visit::kContinue;
      },
      [&](const Cut& cut) { return !holds_at(comp, procs, cut); });
  // An exhausted walk got stuck before the top on every avoiding path: all
  // observations hit the predicate.
  res.definitely = status != WalkStatus::kStopped;
  res.truncated = status == WalkStatus::kTruncated;
  res.cuts_explored = walk.visited();
  if (!res.definitely) {
    res.witness_path = walk.path();
    res.witness = witness_from_path(comp, n, res.witness_path);
  }
  res.storage = walk.storage();
  return res;
}

std::vector<std::vector<StateIndex>> materialize_witness_path(
    std::size_t n, std::span<const std::uint32_t> path) {
  std::vector<std::vector<StateIndex>> cuts;
  cuts.reserve(path.size() + 1);
  cuts.emplace_back(n, 1);
  for (const std::uint32_t s : path) {
    WCP_REQUIRE(s < n, "witness path slot " << s << " out of range for width "
                                            << n);
    std::vector<StateIndex> nxt = cuts.back();
    nxt[s] += 1;
    cuts.push_back(std::move(nxt));
  }
  return cuts;
}

}  // namespace wcp::detect

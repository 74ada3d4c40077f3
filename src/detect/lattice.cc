#include "detect/lattice.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cut_hash.h"
#include "common/cut_storage.h"
#include "common/error.h"
#include "common/thread_pool.h"

namespace wcp::detect {

namespace {

using Cut = std::vector<StateIndex>;

// ---- flat cut storage -------------------------------------------------------
//
// Every visited cut lives exactly once in a CutArena (packed 32-bit
// components, dense handles); the visited set / parent map are a CutTable
// plus a handle-indexed parent vector. One consequence the serial code
// below leans on: serial BFS needs no frontier queue at all — cuts enter
// the arena in exactly the order the queue would pop them, so the frontier
// is the arena suffix [head, size) and its size is size() - head.

/// BFS parent offset of one interned cut: the reference of its predecessor
/// (the bottom cut references itself) plus which slot the advance took.
/// Witness paths are rebuilt from these 12-byte links on demand — the full
/// predecessor cuts are never retained (ltsmin-style trace reconstruction).
template <typename Ref>
struct ParentLink {
  Ref parent;
  std::uint32_t slot;
};

inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Walks the parent offsets from `top` back to the bottom cut and returns
/// the advanced slot of every step, bottom first.
template <typename Ref, typename LinkOf>
std::vector<std::uint32_t> collect_path_slots(Ref top, const LinkOf& link_of) {
  std::vector<std::uint32_t> slots;
  for (Ref c = top;;) {
    const auto link = link_of(c);
    if (link.parent == c) break;
    slots.push_back(link.slot);
    c = link.parent;
  }
  std::reverse(slots.begin(), slots.end());
  return slots;
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

LatticeResult detect_lattice_serial(const Computation& comp,
                                    std::int64_t max_cuts) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();

  LatticeResult res;

  auto satisfies = [&](const Cut& cut) {
    for (std::size_t s = 0; s < n; ++s)
      if (!comp.local_pred(procs[s], cut[s])) return false;
    return true;
  };

  CutArena arena(n);
  CutTable visited;
  const CutHash hasher;
  // links[h] = parent offset of the cut with handle h, enough to rebuild
  // the BFS path to any visited cut without storing predecessor cuts.
  std::vector<ParentLink<CutHandle>> links;

  // The initial cut (all 1s) is always consistent: state 1 has no receives
  // before it, so nothing happened before it on another process. From here
  // on, `scratch` is the only live std::vector — every visited cut is
  // interned into the arena, and the BFS frontier is the arena suffix of
  // not-yet-explored handles.
  Cut scratch(n, 1);
  visited.intern(arena, scratch, hasher(scratch));
  links.push_back({0, kNoSlot});

  for (std::size_t head = 0; head < arena.size(); ++head) {
    res.max_frontier = std::max(
        res.max_frontier, static_cast<std::int64_t>(arena.size() - head));
    arena.copy_to(static_cast<CutHandle>(head), scratch);
    ++res.cuts_explored;

    if (satisfies(scratch)) {
      res.detected = true;
      res.cut = scratch;
      res.witness_path = collect_path_slots(
          static_cast<CutHandle>(head),
          [&](CutHandle c) { return links[c]; });
      break;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      break;
    }

    // Successors: advance one component; the result is a consistent cut iff
    // no current component happened before the advanced state's successor
    // ... i.e. the advanced state is not happened-after-excluded. Full
    // pairwise check against the advanced component suffices because the
    // rest of the cut was already consistent. The advance is done in place
    // on `scratch` and undone after the intern — no temporary cut.
    for (std::size_t s = 0; s < n; ++s) {
      if (scratch[s] + 1 > comp.num_states(procs[s])) continue;
      scratch[s] += 1;
      bool consistent = true;
      for (std::size_t t = 0; t < n && consistent; ++t) {
        if (t == s) continue;
        if (comp.happened_before(procs[s], scratch[s], procs[t], scratch[t]) ||
            comp.happened_before(procs[t], scratch[t], procs[s], scratch[s]))
          consistent = false;
      }
      if (consistent &&
          visited.intern(arena, scratch, hasher(scratch)).inserted)
        links.push_back(
            {static_cast<CutHandle>(head), static_cast<std::uint32_t>(s)});
      scratch[s] -= 1;
    }
  }
  arena.add_stats(res.storage);
  visited.add_stats(res.storage);
  return res;
}

DefinitelyResult detect_definitely_serial(const Computation& comp,
                                          std::int64_t max_cuts) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();

  DefinitelyResult res;

  auto satisfies = [&](const Cut& cut) {
    for (std::size_t s = 0; s < n; ++s)
      if (!comp.local_pred(procs[s], cut[s])) return false;
    return true;
  };

  Cut top(n);
  for (std::size_t s = 0; s < n; ++s) top[s] = comp.num_states(procs[s]);

  // Search for an observation that AVOIDS the predicate: BFS through
  // non-satisfying consistent cuts. If the top cut is reachable (or is
  // itself non-satisfying while reachable), some observation misses the
  // predicate => not definitely.
  Cut scratch(n, 1);
  if (satisfies(scratch)) {
    // Every observation starts at the bottom cut.
    res.definitely = true;
    res.cuts_explored = 1;
    return res;
  }

  CutArena arena(n);
  CutTable visited;
  const CutHash hasher;
  // links[h] = BFS parent offset of the cut with handle h (the bottom cut
  // maps to itself) so the avoiding observation can be reconstructed for
  // the witness. Handles are dense insertion indices, so a plain vector
  // replaces the old cut-keyed parent map.
  std::vector<ParentLink<CutHandle>> links;
  visited.intern(arena, scratch, hasher(scratch));
  links.push_back({0, kNoSlot});

  res.definitely = true;  // until the top cut proves reachable
  for (std::size_t head = 0; head < arena.size(); ++head) {
    arena.copy_to(static_cast<CutHandle>(head), scratch);
    ++res.cuts_explored;
    if (scratch == top) {
      res.definitely = false;  // an observation avoided the predicate
      res.witness_path = collect_path_slots(
          static_cast<CutHandle>(head),
          [&](CutHandle c) { return links[c]; });
      res.witness = witness_from_path(comp, n, res.witness_path);
      break;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      break;
    }

    for (std::size_t s = 0; s < n; ++s) {
      if (scratch[s] + 1 > comp.num_states(procs[s])) continue;
      scratch[s] += 1;
      bool consistent = true;
      for (std::size_t t = 0; t < n && consistent; ++t) {
        if (t == s) continue;
        if (comp.happened_before(procs[s], scratch[s], procs[t], scratch[t]) ||
            comp.happened_before(procs[t], scratch[t], procs[s], scratch[s]))
          consistent = false;
      }
      if (consistent && !satisfies(scratch)) {  // blocked by the WCP
        if (visited.intern(arena, scratch, hasher(scratch)).inserted)
          links.push_back(
              {static_cast<CutHandle>(head), static_cast<std::uint32_t>(s)});
      }
      scratch[s] -= 1;
    }
  }
  // Fell off the loop: every avoiding path got stuck before the top — all
  // observations hit the predicate (res.definitely stayed true).
  arena.add_stats(res.storage);
  visited.add_stats(res.storage);
  return res;
}

}  // namespace

LatticeResult detect_lattice(const Computation& comp, std::int64_t max_cuts,
                             std::size_t threads) {
  WCP_REQUIRE(!comp.predicate_processes().empty(), "empty predicate");
  // Accepted, thread-invariant: 0 still validates WCP_THREADS.
  if (threads == 0) (void)common::default_threads();
  LatticeResult res = detect_lattice_serial(comp, max_cuts);
  res.trace_store = comp.trace_store_stats();
  return res;
}

DefinitelyResult detect_definitely(const Computation& comp,
                                   std::int64_t max_cuts,
                                   std::size_t threads) {
  WCP_REQUIRE(!comp.predicate_processes().empty(), "empty predicate");
  if (threads == 0) (void)common::default_threads();
  DefinitelyResult res = detect_definitely_serial(comp, max_cuts);
  res.trace_store = comp.trace_store_stats();
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

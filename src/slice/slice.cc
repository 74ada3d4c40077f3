#include "slice/slice.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "common/error.h"

namespace wcp::slice {

Slice Slice::build(const SliceInput& in, SliceBuildCounters* counters) {
  SliceBuildCounters local;
  SliceBuildCounters& ctr = counters ? *counters : local;
  const std::size_t n = in.num_slots();
  WCP_REQUIRE(n >= 1, "empty predicate");

  Slice s;
  s.slots_.resize(n);
  s.groups_ = CutArena(n);

  const auto bottom = jil(in, 0, 1, &ctr.jil);
  if (!bottom) return s;  // no satisfying cut: empty slice
  s.bottom_ = *bottom;

  // States whose J coincide form one strongly connected component of the
  // constraint graph (mutual inclusion); deduplicate by interning into the
  // group arena via a flat CutTable keyed by the shared CutHash. Group ids
  // are the dense arena handles, so the id sequence is the first-occurrence
  // order — exactly what the old cut -> id map produced.
  CutTable group_table;
  const CutHash hasher;
  auto intern = [&](const std::vector<StateIndex>& cut) {
    return static_cast<int>(
        group_table.intern(s.groups_, cut, hasher(cut)).handle);
  };

  // Per slot, compute the J_s(·) column (see jil_column: each fixpoint
  // resumes from the previous J, amortized O(n^2 m) per slot).
  for (std::size_t slot = 0; slot < n; ++slot) {
    auto& per = s.slots_[slot];
    per.group.assign(static_cast<std::size_t>(in.num_states(slot)), -1);
    const auto col = jil_column(in, slot, s.bottom_, &ctr.jil);
    for (std::size_t k0 = 0; k0 < col.size(); ++k0) {
      if (!col[k0]) break;  // column ends at the slice top
      per.group[k0] = intern(*col[k0]);
    }
  }

  // Slice top = join of all JILs == the greatest satisfying cut; since the
  // per-slot J sequences are monotone, that is the pointwise max of the
  // last existing J per slot — equivalently each slot's deepest state that
  // still has a group.
  s.top_.assign(n, 0);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const auto& g = s.slots_[slot].group;
    StateIndex k = static_cast<StateIndex>(g.size());
    while (k >= 1 && g[static_cast<std::size_t>(k - 1)] < 0) --k;
    WCP_CHECK_MSG(k >= 1, "nonempty slice must cover every slot");
    s.top_[slot] = k;
  }

  // Quotient-DAG edges: group of (t, J[t]) -> group holding the state whose
  // J is this cut, for every constraint component. Deduplicate pairs.
  std::set<std::pair<int, int>> edges;
  for (std::size_t slot = 0; slot < n; ++slot) {
    const auto& g = s.slots_[slot].group;
    for (StateIndex k = 1; k <= static_cast<StateIndex>(g.size()); ++k) {
      const int to = g[static_cast<std::size_t>(k - 1)];
      if (to < 0) continue;
      const auto j = s.groups_.get(static_cast<CutHandle>(to));
      for (std::size_t t = 0; t < n; ++t) {
        if (t == slot) continue;
        const int from = s.group_of(t, static_cast<StateIndex>(j[t]));
        if (from >= 0 && from != to) edges.insert({from, to});
      }
    }
  }
  s.num_edges_ = static_cast<std::int64_t>(edges.size());
  s.groups_.add_stats(ctr.storage);
  group_table.add_stats(ctr.storage);
  return s;
}

Slice Slice::build(const Computation& comp, SliceBuildCounters* counters) {
  return build(ComputationInput(comp), counters);
}

int Slice::group_of(std::size_t slot, StateIndex k) const {
  const auto& g = slots_.at(slot).group;
  if (k < 1 || k > static_cast<StateIndex>(g.size())) return -1;
  return g[static_cast<std::size_t>(k - 1)];
}

bool Slice::contains(std::span<const StateIndex> cut) const {
  if (empty() || cut.size() != slots_.size()) return false;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const int g = group_of(s, cut[s]);
    if (g < 0) return false;
    const auto j = groups_.get(static_cast<CutHandle>(g));
    for (std::size_t t = 0; t < slots_.size(); ++t)
      if (cut[t] < static_cast<StateIndex>(j[t])) return false;
  }
  return true;
}

void Slice::successors(
    const std::vector<StateIndex>& cut,
    const std::function<void(std::vector<StateIndex>)>& emit) const {
  const std::size_t n = slots_.size();
  for (std::size_t s = 0; s < n; ++s) {
    const int g = group_of(s, cut[s] + 1);
    if (g < 0) continue;  // slot exhausted or state sliced away
    const auto j = groups_.get(static_cast<CutHandle>(g));
    // C join J_s(C[s]+1): the least satisfying cut strictly above C in
    // slot s. Every cover of C in the satisfying lattice has this shape.
    std::vector<StateIndex> next(n);
    for (std::size_t t = 0; t < n; ++t)
      next[t] = std::max(cut[t], static_cast<StateIndex>(j[t]));
    next[s] = std::max(next[s], cut[s] + 1);
    emit(std::move(next));
  }
}

Slice::CutCount Slice::num_cuts(std::int64_t cap) const {
  CutCount out;
  // Enumerate one past the cap so an exact-cap count is not misreported as
  // saturated.
  out.count = for_each_cut(
      [](const std::vector<StateIndex>&) { return true; },
      cap < 0 ? -1 : cap + 1);
  if (cap >= 0 && out.count > cap) {
    out.count = cap;
    out.saturated = true;
  }
  return out;
}

std::int64_t Slice::for_each_cut(
    const std::function<bool(const std::vector<StateIndex>&)>& fn,
    std::int64_t cap) const {
  std::int64_t visited = 0;
  CutIterator it(*this);
  while (cap < 0 || visited < cap) {
    const auto cut = it.next();
    if (!cut) break;
    ++visited;
    if (!fn(*cut)) break;
  }
  return visited;
}

Slice::CutIterator::CutIterator(const Slice& slice)
    : slice_(slice), seen_arena_(slice.slots_.size()) {
  if (!slice_.empty()) push(slice_.bottom_);
}

void Slice::CutIterator::push(std::vector<StateIndex> cut) {
  const auto r = seen_table_.intern(seen_arena_, cut, CutHash{}(cut));
  if (!r.inserted) return;
  StateIndex level = 0;
  for (StateIndex k : cut) level += k;
  ready_.push(Entry{level, seq_++, r.handle});
}

std::optional<std::vector<StateIndex>> Slice::CutIterator::next() {
  if (ready_.empty()) return std::nullopt;
  const CutHandle h = ready_.top().cut;
  ready_.pop();
  std::vector<StateIndex> cut = seen_arena_.materialize(h);
  slice_.successors(cut,
                    [this](std::vector<StateIndex> n) { push(std::move(n)); });
  return cut;
}

}  // namespace wcp::slice

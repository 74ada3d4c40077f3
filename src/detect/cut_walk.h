// The Cooper–Marzullo walk: level-ordered search of the lattice of
// consistent cuts, the general baseline of §1 of the paper. This is the
// one copy of that search; five hosts run it:
//
//   detect_lattice, detect_definitely  detect/lattice.h     trace clocks
//   detect_possibly_general            detect/relational.h  trace clocks
//   detect_gcp_lattice (GCP oracle)    detect/gcp.h         trace clocks
//   LatticeOnlineCore                  detect/stream_core.h stream clocks
//
// CutWalk holds no Computation and no simulator. It owns the visited set
// (CutArena + CutTable, common/cut_storage.h), the successor loop, the
// consistency test and the cap. The host supplies a clock oracle, a visit
// callback and a successor filter as template arguments, so no indirect
// call runs per cut.
//
// Clock oracle: `last(s)` is the highest state of slot s the walk may
// read, and `clock(s, k, t)` is component t of the clock of state (s, k),
// both in slot numbering. An oracle that also answers `ended(s)` is live:
// its slots still grow, and a successor whose advanced state has not
// arrived waits for it. The oracle's shape picks the frontier:
//   - complete (offline): breadth-first. Cuts enter the arena in the order
//     a FIFO queue would pop them, so the frontier is the arena suffix and
//     needs no queue. Each cut keeps a parent offset (its predecessor's
//     handle and the advanced slot), from which path() rebuilds the
//     witness, the shape of ltsmin's trc_find_trace.
//   - live (online): a (level, seq) min-heap of ready cuts plus cuts
//     parked on the state they wait for. arrive(s) wakes them, end(s)
//     drops them and collect() retires visited cuts below a GC floor.
//
// Consistency: every cut the walk holds is consistent, and so is the
// bottom cut (all 1s), because a first state has seen no other process:
// clock(s, 1)[t] = 0 for t != s. Offline clocks are replayed from the
// trace; the serve session refuses a first snapshot that breaks this.
// Advancing slot s to k keeps a cut consistent iff no other component
// happened before (s, k), i.e. clock(s, k)[t] < cut[t] for every t != s:
// n-1 clock reads. The reverse direction cannot fire: (s, k) happening
// before (t, cut[t]) needs clock(t, cut[t])[s] >= k, and the parent cut
// was consistent with the smaller k - 1. A parked cut is tested when it
// wakes, on the slot it parked on only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cut_hash.h"
#include "common/cut_storage.h"
#include "common/error.h"
#include "common/types.h"

namespace wcp::detect {

/// A visit callback's answer for the cut it was shown.
enum class Visit : std::uint8_t { kContinue, kStop };

/// Why CutWalk::step returned.
enum class WalkStatus : std::uint8_t {
  kStopped,    ///< the visit callback answered kStop
  kTruncated,  ///< `max_cuts` cuts visited without a stop
  kIdle,       ///< no cut left to visit (live: until more states arrive)
};

/// Successor filter that admits every consistent cut.
struct AdmitAll {
  bool operator()(const std::vector<StateIndex>&) const { return true; }
};

template <typename Clocks>
class CutWalk {
 public:
  using Cut = std::vector<StateIndex>;
  static constexpr bool kLive =
      requires(const Clocks& c) { c.ended(std::size_t{0}); };

  /// Seeds the walk with the bottom cut of width n. max_cuts < 0: no cap.
  CutWalk(Clocks clocks, std::size_t n, std::int64_t max_cuts)
      : clocks_(std::move(clocks)),
        max_cuts_(max_cuts),
        cut_(n, 1),
        arena_(n) {
    WCP_REQUIRE(n >= 1, "empty predicate");
    const CutHandle bottom =
        table_.intern(arena_, cut_, CutHash{}(cut_)).handle;
    if constexpr (kLive) {
      enqueue(bottom, kNoSlot);
    } else {
      links_.push_back({bottom, kNoSlot});
    }
  }

  /// Visits consistent cuts in level order, each once, until `visit`
  /// answers kStop, `max_cuts` cuts were visited (the last one is left
  /// unexpanded) or no cut is left. `admit` decides which consistent
  /// successors join the frontier; a live walk takes only AdmitAll, since
  /// a parked successor is interned before its state can be tested. Both
  /// see the walk's scratch cut: copy what must outlive the call. After
  /// kStopped or kTruncated the walk is finished.
  template <typename OnVisit, typename Admit = AdmitAll>
    requires(!kLive || std::is_same_v<std::remove_cvref_t<Admit>, AdmitAll>)
  WalkStatus step(OnVisit&& visit, Admit&& admit = {}) {
    while (pop()) {
      ++visited_;
      if (visit(std::as_const(cut_)) == Visit::kStop)
        return WalkStatus::kStopped;
      if (max_cuts_ >= 0 && visited_ >= max_cuts_)
        return WalkStatus::kTruncated;
      expand(admit);
    }
    return WalkStatus::kIdle;
  }

  /// Cuts shown to the visit callback so far.
  [[nodiscard]] std::int64_t visited() const { return visited_; }
  /// Clock components read by consistency tests so far.
  [[nodiscard]] std::int64_t clock_reads() const { return clock_reads_; }
  /// Waiting entries, the cut being visited excluded: the unvisited arena
  /// suffix, or (live) the ready cuts plus one per awaited state.
  [[nodiscard]] std::int64_t frontier() const {
    if constexpr (kLive) {
      return static_cast<std::int64_t>(ready_.size() + parked_.size());
    } else {
      return static_cast<std::int64_t>(arena_.size() - head_);
    }
  }

  /// The advanced slot of every step from the bottom cut to the cut last
  /// visited, bottom first (complete walks).
  [[nodiscard]] std::vector<std::uint32_t> path() const requires(!kLive) {
    std::vector<std::uint32_t> slots;
    for (CutHandle c = current_; links_[c].parent != c; c = links_[c].parent)
      slots.push_back(links_[c].slot);
    std::reverse(slots.begin(), slots.end());
    return slots;
  }

  /// Measured cut-storage footprint, arenas retired by collect() included.
  [[nodiscard]] CutStorageStats storage() const {
    CutStorageStats s;
    arena_.add_stats(s);
    table_.add_stats(s);
    s.peak_bytes = std::max(s.peak_bytes, retired_.peak_bytes);
    s.table_probes += retired_.table_probes;
    s.heap_allocs += retired_.heap_allocs;
    return s;
  }

  // ---- live walks ------------------------------------------------------

  /// State last(s) of slot s arrived: wake the cuts parked on it.
  void arrive(std::size_t s) requires kLive {
    const auto it = parked_.find({s, clocks_.last(s)});
    if (it == parked_.end()) return;
    for (const CutHandle h : it->second)
      enqueue(h, static_cast<std::uint32_t>(s));
    parked_.erase(it);
  }

  /// Slot s ended: cuts parked on it wait for a state that never comes.
  void end(std::size_t s) requires kLive {
    parked_.erase(parked_.lower_bound({s, 0}),
                  parked_.lower_bound({s + 1, 0}));
  }

  /// No cut is ready and none waits: the lattice is exhausted.
  [[nodiscard]] bool exhausted() const requires kLive {
    return ready_.empty() && parked_.empty();
  }

  /// Lowest component s over the ready and parked cuts, or `none`.
  [[nodiscard]] StateIndex lowest(std::size_t s, StateIndex none) const
      requires kLive {
    StateIndex lo = none;
    const auto consider = [&](CutHandle h) {
      lo = std::min(lo, static_cast<StateIndex>(arena_.get(h)[s]));
    };
    for (const Entry& e : ready_) consider(e.cut);
    for (const auto& [key, cuts] : parked_)
      for (const CutHandle h : cuts) consider(h);
    return lo;
  }

  /// Retires every visited cut with some component strictly below the
  /// floor. Safe when floor[s] <= lowest(s): ready and parked cuts stay,
  /// and successors only grow componentwise, so no future cut can equal a
  /// retired one.
  void collect(std::span<const StateIndex> floor) requires kLive {
    WCP_CHECK(floor.size() == n());
    if (arena_.empty()) return;
    CutArena next_arena(n());
    CutTable next_table;
    std::vector<CutHandle> remap(arena_.size(), kNoCut);
    const CutHash hasher;
    for (CutHandle h = 0; h < static_cast<CutHandle>(arena_.size()); ++h) {
      const auto span = arena_.get(h);
      bool keep = true;
      for (std::size_t s = 0; s < n() && keep; ++s)
        if (static_cast<StateIndex>(span[s]) < floor[s]) keep = false;
      if (!keep) {
        ++cuts_retired_;
        continue;
      }
      arena_.copy_to(h, cut_);
      remap[h] = next_table.intern(next_arena, cut_, hasher(cut_)).handle;
    }
    if (next_arena.size() == arena_.size()) return;  // nothing retired

    for (Entry& e : ready_) {
      e.cut = remap[e.cut];
      WCP_CHECK_MSG(e.cut != kNoCut, "GC retired an active ready cut");
    }
    for (auto& [key, cuts] : parked_)
      for (CutHandle& h : cuts) {
        h = remap[h];
        WCP_CHECK_MSG(h != kNoCut, "GC retired an active parked cut");
      }

    retired_.peak_bytes = std::max(retired_.peak_bytes,
                                   arena_.peak_bytes() + table_.peak_bytes());
    retired_.table_probes += table_.probes();
    retired_.heap_allocs += arena_.growths() + table_.growths();
    arena_ = std::move(next_arena);
    table_ = std::move(next_table);
  }

  [[nodiscard]] std::int64_t cuts_retired() const requires kLive {
    return cuts_retired_;
  }

  /// Resident bytes of the visited set and the frontier (approximate).
  [[nodiscard]] std::int64_t resident_bytes() const requires kLive {
    std::int64_t b = arena_.bytes_in_use() + table_.bytes_in_use();
    b += static_cast<std::int64_t>(ready_.size() * sizeof(Entry));
    for (const auto& [key, cuts] : parked_)
      b += static_cast<std::int64_t>(64 + cuts.size() * sizeof(CutHandle));
    return b;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Parent offset of an interned cut: its predecessor's handle (the
  /// bottom cut references itself) and the slot the advance took.
  struct Link {
    CutHandle parent;
    std::uint32_t slot;
  };

  /// A ready cut. `check` is the slot a woken parked cut still has to be
  /// tested on (kNoSlot: already tested).
  struct Entry {
    StateIndex level;
    std::int64_t seq;
    CutHandle cut;
    std::uint32_t check;
    bool operator>(const Entry& o) const {
      return level != o.level ? level > o.level : seq > o.seq;
    }
  };

  [[nodiscard]] std::size_t n() const { return cut_.size(); }

  /// Loads the next cut to visit into cut_; false when none is ready.
  bool pop() {
    if constexpr (kLive) {
      while (!ready_.empty()) {
        const Entry e = ready_.front();
        std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
        ready_.pop_back();
        arena_.copy_to(e.cut, cut_);
        // Only the bottom cut can be ready before its states arrived: park
        // it on the first missing one (dropped if that slot ended).
        std::size_t s = 0;
        while (s < n() && cut_[s] <= clocks_.last(s)) ++s;
        if (s < n()) {
          if (!clocks_.ended(s)) parked_[{s, cut_[s]}].push_back(e.cut);
          continue;
        }
        if (e.check != kNoSlot && !consistent(e.check)) continue;
        return true;
      }
      return false;
    } else {
      if (head_ == arena_.size()) return false;
      current_ = static_cast<CutHandle>(head_++);
      arena_.copy_to(current_, cut_);
      return true;
    }
  }

  /// True iff cut_, consistent before slot s advanced by one, still is.
  bool consistent(std::size_t s) {
    const StateIndex k = cut_[s];
    for (std::size_t t = 0; t < n(); ++t) {
      if (t == s) continue;
      ++clock_reads_;
      if (clocks_.clock(s, k, t) >= cut_[t]) return false;
    }
    return true;
  }

  /// Adds the unvisited consistent successors of cut_ that `admit` takes.
  /// The advance is made in place on cut_ and undone after the intern.
  template <typename Admit>
  void expand(const Admit& admit) {
    const CutHash hasher;
    for (std::size_t s = 0; s < n(); ++s) {
      if constexpr (!kLive) {
        if (cut_[s] >= clocks_.last(s)) continue;
      }
      cut_[s] += 1;
      if constexpr (kLive) {
        // Dedup first: a successor whose advanced state has not arrived
        // cannot be tested yet, so it parks until the state comes.
        const std::size_t hash = hasher(cut_);
        if (table_.find(arena_, cut_, hash) == kNoCut) {
          if (cut_[s] > clocks_.last(s)) {
            if (!clocks_.ended(s))
              parked_[{s, cut_[s]}].push_back(
                  table_.intern(arena_, cut_, hash).handle);
          } else if (consistent(s) && admit(std::as_const(cut_))) {
            enqueue(table_.intern(arena_, cut_, hash).handle, kNoSlot);
          }
        }
      } else {
        if (consistent(s) && admit(std::as_const(cut_)) &&
            table_.intern(arena_, cut_, hasher(cut_)).inserted)
          links_.push_back({current_, static_cast<std::uint32_t>(s)});
      }
      cut_[s] -= 1;
    }
  }

  void enqueue(CutHandle h, std::uint32_t check) {
    StateIndex level = 0;
    for (const std::uint32_t k : arena_.get(h))
      level += static_cast<StateIndex>(k);
    ready_.push_back(Entry{level, seq_++, h, check});
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  }

  Clocks clocks_;
  std::int64_t max_cuts_;
  Cut cut_;  // the cut being visited; the successor loop's scratch
  CutArena arena_;
  CutTable table_;
  std::int64_t visited_ = 0;
  std::int64_t clock_reads_ = 0;

  // Complete walks: the arena suffix from head_ is the frontier.
  std::size_t head_ = 0;
  CutHandle current_ = 0;
  std::vector<Link> links_;  // links_[h]: parent offset of cut h

  // Live walks.
  std::vector<Entry> ready_;  // min-heap on (level, seq)
  std::int64_t seq_ = 0;
  std::map<std::pair<std::size_t, StateIndex>, std::vector<CutHandle>>
      parked_;  // (slot, state) -> cuts waiting for that state
  CutStorageStats retired_;  // arenas replaced by collect()
  std::int64_t cuts_retired_ = 0;
};

}  // namespace wcp::detect

// The computation slice of a conjunctive predicate (Mittal & Garg).
//
// The slice abstracts a computation into exactly the structure needed to
// answer questions about the *satisfying* consistent cuts: a directed graph
// whose vertices are the join-irreducible cuts J_s(k) (see jil.h), with
// states grouped into strongly connected components — two states (s,k) and
// (t,l) share a group iff J_s(k) == J_t(l), i.e. no satisfying cut can
// include one without the other. The satisfying cuts of the computation are
// exactly the ideals (down-sets) of the quotient DAG:
//
//   C satisfies the WCP  <=>  every J_s(C[s]) exists and J_s(C[s]) <= C.
//
// Building the slice costs O(n^2 m) amortized (per slot, J_s(k) is monotone
// in k, so the fixpoint for J_s(k+1) resumes from J_s(k)); afterwards
// possibly() is slice non-emptiness, the minimal satisfying cut is the
// slice bottom, and enumeration/counting touch only satisfying cuts — the
// exponential sea of non-satisfying cuts the Cooper-Marzullo baseline wades
// through (bench E10) is never visited.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/cut_hash.h"
#include "common/cut_storage.h"
#include "common/types.h"
#include "slice/jil.h"

namespace wcp::slice {

/// FNV-1a over cut components — the one shared definition in
/// common/cut_hash.h, also used by the lattice detectors' visited sets.
using CutHash = wcp::CutHash;

/// Counters accumulated while building a slice.
struct SliceBuildCounters {
  JilCounters jil;
  /// Footprint of the JIL-group interning (arena + dedup table); a
  /// deterministic function of the computation.
  CutStorageStats storage;
};

class Slice {
 public:
  /// Builds the slice of `in`'s computation w.r.t. its conjunctive
  /// predicate. O(n^2 m) fixpoint work plus O(n m) grouping, serial: a
  /// per-slot column fan-out measured under 1.5x on 4 cores
  /// (EXPERIMENTS.md E15p).
  static Slice build(const SliceInput& in,
                     SliceBuildCounters* counters = nullptr);
  /// Convenience: slice of a Computation via the ground-truth oracle.
  static Slice build(const Computation& comp,
                     SliceBuildCounters* counters = nullptr);

  /// True iff no consistent cut satisfies the predicate.
  [[nodiscard]] bool empty() const { return groups_.empty(); }

  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }

  /// Least satisfying cut (the slice bottom); empty vector iff empty().
  /// Equals the cut detect_lattice returns.
  [[nodiscard]] const std::vector<StateIndex>& bottom() const {
    return bottom_;
  }
  /// Greatest satisfying cut (the slice top); empty vector iff empty().
  [[nodiscard]] const std::vector<StateIndex>& top() const { return top_; }

  /// Number of join-irreducible groups (SCCs of the constraint graph).
  [[nodiscard]] std::int64_t num_groups() const {
    return static_cast<std::int64_t>(groups_.size());
  }
  /// Edges of the quotient DAG (deduplicated).
  [[nodiscard]] std::int64_t num_edges() const { return num_edges_; }

  /// Group id of state (slot, k), or -1 when the state lies in no
  /// satisfying cut (it was sliced away).
  [[nodiscard]] int group_of(std::size_t slot, StateIndex k) const;

  /// The join-irreducible cut of group `g`, widened out of the group arena.
  [[nodiscard]] std::vector<StateIndex> group_cut(int g) const {
    return groups_.materialize(static_cast<CutHandle>(g));
  }

  /// True iff `cut` is a satisfying consistent cut (an ideal of the slice).
  [[nodiscard]] bool contains(std::span<const StateIndex> cut) const;

  /// Number of ideals of the slice == number of satisfying consistent cuts.
  /// Enumerates at most `cap` cuts; `saturated` reports hitting the cap.
  struct CutCount {
    std::int64_t count = 0;
    bool saturated = false;
  };
  [[nodiscard]] CutCount num_cuts(std::int64_t cap = 1'000'000) const;

  /// Calls `fn` for every satisfying consistent cut in level order (sum of
  /// components, ties by discovery), until `fn` returns false or `cap`
  /// cuts have been visited. Returns the number of cuts visited.
  std::int64_t for_each_cut(
      const std::function<bool(const std::vector<StateIndex>&)>& fn,
      std::int64_t cap = -1) const;

  /// Pull-style enumeration of the slice's consistent cuts in level order.
  class CutIterator {
   public:
    explicit CutIterator(const Slice& slice);
    /// Next satisfying cut, or nullopt when exhausted.
    std::optional<std::vector<StateIndex>> next();

   private:
    // Every generated cut is interned once into the seen arena
    // (common/cut_storage.h); heap entries hold 32-bit handles into it.
    struct Entry {
      StateIndex level;
      std::int64_t seq;
      CutHandle cut;
      bool operator>(const Entry& o) const {
        return level != o.level ? level > o.level : seq > o.seq;
      }
    };
    void push(std::vector<StateIndex> cut);

    const Slice& slice_;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready_;
    CutArena seen_arena_;
    CutTable seen_table_;
    std::int64_t seq_ = 0;
  };

  [[nodiscard]] CutIterator cuts() const { return CutIterator(*this); }

 private:
  friend class CutIterator;

  struct PerSlot {
    /// group[k-1] = group id of J_s(k), -1 past the slice top.
    std::vector<int> group;
  };

  /// Successor cuts within the slice: C join J_s(C[s]+1) for each slot s
  /// that can still advance. Every cover of C in the satisfying lattice is
  /// among these, so BFS from bottom() reaches every satisfying cut.
  void successors(const std::vector<StateIndex>& cut,
                  const std::function<void(std::vector<StateIndex>)>& emit)
      const;

  std::vector<PerSlot> slots_;
  CutArena groups_;  // group id == arena handle -> packed JIL cut
  std::vector<StateIndex> bottom_;
  std::vector<StateIndex> top_;
  std::int64_t num_edges_ = 0;
};

}  // namespace wcp::slice

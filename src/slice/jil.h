// Join-irreducible lattice elements (JILs) for conjunctive predicates —
// the core primitive of computation slicing (Mittal & Garg, "Techniques
// and Applications of Computation Slicing"; Chauhan et al., "A Distributed
// Abstraction Algorithm for Online Predicate Detection").
//
// For a conjunctive predicate (one local predicate per slot) the set L of
// satisfying consistent cuts is closed under pointwise meet AND join — the
// predicate is *regular* — so L is a distributive lattice. By Birkhoff's
// theorem L is determined by its join-irreducible elements, and for a
// conjunctive predicate those are exactly the cuts
//
//   J_s(k) = the least satisfying consistent cut C with C[s] >= k,
//
// computed by the standard "advance past false states" fixpoint: start every
// component at its lower bound, and repeatedly (a) advance a component
// sitting on a false state to the next true state, and (b) when component
// (s, C[s]) happened before (t, C[t]), advance C[s] past everything (t,C[t])
// has seen of s. Each advance is forced (every satisfying cut above the
// bounds must clear it), so the fixpoint is the unique least cut, or fails
// when a component runs off the end of its process.
//
// The fixpoint runs against an abstract SliceInput so the same code serves
// the offline slicer (ground-truth clocks from trace/computation.h) and the
// online slicer (n-width Fig. 2 clocks from streamed app::VcSnapshots).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "trace/computation.h"

namespace wcp::slice {

/// Abstract view of a computation restricted to the n predicate slots:
/// per-slot state counts, local-predicate truth, and the happened-before
/// information the consistency checks need.
class SliceInput {
 public:
  virtual ~SliceInput() = default;

  [[nodiscard]] virtual std::size_t num_slots() const = 0;
  /// Number of states available on `slot` (>= 1).
  [[nodiscard]] virtual StateIndex num_states(std::size_t slot) const = 0;
  /// Local-predicate truth of state k (1-based) on `slot`.
  [[nodiscard]] virtual bool pred(std::size_t slot, StateIndex k) const = 0;
  /// Highest state of slot t that happened before state (s, k); 0 if none.
  /// Exactly the t-component of (s,k)'s vector clock, so
  /// (t,l) -> (s,k) iff causal_floor(s,k,t) >= l. Requires s != t.
  [[nodiscard]] virtual StateIndex causal_floor(std::size_t s, StateIndex k,
                                                std::size_t t) const = 0;
};

/// SliceInput over a full Computation, answered from the ground-truth
/// happened-before oracle (the correctness reference).
class ComputationInput final : public SliceInput {
 public:
  explicit ComputationInput(const Computation& comp);

  [[nodiscard]] std::size_t num_slots() const override {
    return procs_.size();
  }
  [[nodiscard]] StateIndex num_states(std::size_t slot) const override {
    return comp_.num_states(procs_[slot]);
  }
  [[nodiscard]] bool pred(std::size_t slot, StateIndex k) const override {
    return comp_.local_pred(procs_[slot], k);
  }
  [[nodiscard]] StateIndex causal_floor(std::size_t s, StateIndex k,
                                        std::size_t t) const override {
    // Single-component read straight from the delta-encoded trace store —
    // no full-clock reconstruction on the fixpoint's hot path.
    return comp_.clock_component(procs_[s], k, procs_[t]);
  }

 private:
  const Computation& comp_;
  std::vector<ProcessId> procs_;
};

/// Work counters of the fixpoint, reported as `jil_*` bench metrics. One
/// "advance" eliminates at least one candidate state, so `advances` is the
/// slice-side analogue of the lattice baseline's `cuts_explored`.
struct JilCounters {
  std::int64_t calls = 0;          ///< fixpoint invocations
  std::int64_t advances = 0;       ///< component advances (states eliminated)
  std::int64_t clock_lookups = 0;  ///< causal_floor evaluations
};

/// Least satisfying consistent cut C with C[s] >= lower_bounds[s] for every
/// slot, or nullopt if none exists. O(n^2 m) worst case.
std::optional<std::vector<StateIndex>> least_satisfying_cut(
    const SliceInput& in, std::span<const StateIndex> lower_bounds,
    JilCounters* counters = nullptr);

/// J_s(k): least satisfying consistent cut including state (slot, k).
std::optional<std::vector<StateIndex>> jil(const SliceInput& in,
                                           std::size_t slot, StateIndex k,
                                           JilCounters* counters = nullptr);

/// Least *consistent* cut above the bounds, ignoring local predicates (used
/// to complete a pair of anchor states into a full witness cut).
std::optional<std::vector<StateIndex>> least_consistent_cut(
    const SliceInput& in, std::span<const StateIndex> lower_bounds,
    JilCounters* counters = nullptr);

/// The whole J_slot(·) column: column[k-1] = J_slot(k) for k = 1..m_slot,
/// nullopt for states past the slice top (no satisfying cut includes them).
/// `bottom` must be the slice bottom (== J_slot(1) where it exists); each
/// fixpoint resumes from the previous J, so one column costs amortized
/// O(n^2 m).
std::vector<std::optional<std::vector<StateIndex>>> jil_column(
    const SliceInput& in, std::size_t slot,
    const std::vector<StateIndex>& bottom, JilCounters* counters = nullptr);

}  // namespace wcp::slice

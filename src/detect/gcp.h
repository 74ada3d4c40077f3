// Generalized Conjunctive Predicates (GCP) — the companion extension of
// Garg, Chase, Mitchell & Kilgore (HICSS'95, reference [6] of the paper):
// conjunctions of local predicates AND channel predicates.
//
// A channel predicate constrains the messages in transit on one directed
// channel at the cut: sent by `from` before its cut state, not yet received
// by `to` at its cut state. The supported predicates are *linear* in the
// Chase-Garg sense, which is what makes first-cut detection well defined:
//
//   kEmpty    in_transit == 0   violating cut => advance the RECEIVER
//   kAtMost   in_transit <= k   (receiver-monotone, same rule)
//   kAtLeast  in_transit >= k   violating cut => advance the SENDER
//
// Both families are closed under pointwise meet on consistent cuts, so the
// conjunction has a unique minimal satisfying cut. CentralizedCore
// (detect/stream_core.h) finds it by advancing candidates: queue-head
// consistency eliminations plus a channel step that pops the victim of the
// first violated channel predicate. detect_gcp hosts it offline and
// run_gcp_centralized (detect/centralized.h) on the simulator;
// detect_gcp_lattice is the brute-force oracle the tests compare against.
//
// The flagship instance is distributed termination detection:
//   (forall i: passive_i)  ∧  (forall channels: empty)
// — see examples/termination_detection.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/cut_storage.h"
#include "common/types.h"
#include "trace/computation.h"

namespace wcp::detect {

struct ChannelPredicate {
  enum class Kind : std::uint8_t { kEmpty, kAtMost, kAtLeast };

  ProcessId from;
  ProcessId to;
  Kind kind = Kind::kEmpty;
  std::int64_t k = 0;

  [[nodiscard]] bool holds(std::int64_t in_transit) const {
    switch (kind) {
      case Kind::kEmpty: return in_transit == 0;
      case Kind::kAtMost: return in_transit <= k;
      case Kind::kAtLeast: return in_transit >= k;
    }
    return false;
  }

  static ChannelPredicate empty(ProcessId from, ProcessId to) {
    return {from, to, Kind::kEmpty, 0};
  }
  static ChannelPredicate at_most(ProcessId from, ProcessId to,
                                  std::int64_t k) {
    return {from, to, Kind::kAtMost, k};
  }
  static ChannelPredicate at_least(ProcessId from, ProcessId to,
                                   std::int64_t k) {
    return {from, to, Kind::kAtLeast, k};
  }

  /// Channel predicates asserting every directed channel of an N-process
  /// system is empty (the termination-detection instance).
  static std::vector<ChannelPredicate> all_channels_empty(std::size_t N);
};

std::ostream& operator<<(std::ostream& os, const ChannelPredicate& cp);

struct GcpResult {
  bool detected = false;
  /// Cut over the GCP's process set: the predicate processes of the
  /// computation plus every channel endpoint, in `procs` order.
  std::vector<ProcessId> procs;
  std::vector<StateIndex> cut;
  /// States discarded until the verdict. A not-detected run stops when
  /// the first slot runs dry, which depends on the elimination order.
  std::int64_t eliminations = 0;
  std::int64_t channel_evals = 0;      // channel-predicate evaluations
  std::int64_t cuts_explored = 0;      // lattice oracle only
  bool truncated = false;              // lattice oracle hit max_cuts
  CutStorageStats storage;             // lattice oracle only
};

/// Advance-candidate GCP detection offline: CentralizedCore fed every
/// candidate with its ground-truth clock, slot by slot.
GcpResult detect_gcp(const Computation& comp,
                     std::span<const ChannelPredicate> channels);

/// Brute-force lattice oracle: the lattice walk (detect/cut_walk.h) over
/// consistent cuts of the same process set, returning the first
/// (minimal-level) satisfying cut. At `max_cuts` it stops with `truncated`
/// set, and a not-detected verdict then proves nothing.
GcpResult detect_gcp_lattice(const Computation& comp,
                             std::span<const ChannelPredicate> channels,
                             std::int64_t max_cuts = -1);

/// Messages in transit from `cp.from` to `cp.to` at the cut position
/// (from_state, to_state): sent strictly before the end of from_state's
/// successor boundary, not yet received at to_state. Exposed for tests.
std::int64_t in_transit(const Computation& comp, ProcessId from,
                        StateIndex from_state, ProcessId to,
                        StateIndex to_state);

}  // namespace wcp::detect

// Local snapshot formats sent from application processes to their monitors.
#pragma once

#include <cstdint>
#include <vector>

#include "clock/dependence.h"
#include "clock/vector_clock.h"
#include "common/types.h"
#include "sim/payload.h"

namespace wcp::app {

/// §3.1 snapshot: the n-component vector clock of a state in which the
/// local predicate holds.
///
/// For GCP runs (reference [6]; AppDriverOptions::include_channel_counts)
/// the snapshot additionally carries this process's per-peer message
/// counters at the state: sent_to[q] = messages sent to P_q before this
/// state, recv_from[q] = messages from P_q received at this state. The
/// centralized GCP checker evaluates channel predicates from these.
struct VcSnapshot {
  VectorClock vclock;
  std::vector<std::int64_t> sent_to;    // empty unless channel counts on
  std::vector<std::int64_t> recv_from;  // empty unless channel counts on
  /// Local-predicate value of the state. Always true for the WCP detectors
  /// (they only snapshot satisfying states); meaningful in all-states mode
  /// (the online Cooper-Marzullo checker).
  bool pred = true;

  [[nodiscard]] std::int64_t bits() const {
    return vclock.bits() + 1 +
           static_cast<std::int64_t>(sent_to.size() + recv_from.size()) * 64;
  }
  /// Approximate in-memory size, used for the §3.4 buffer-space claim.
  [[nodiscard]] std::int64_t bytes() const { return bits() / 8; }
};

/// §4.1 snapshot: the scalar logical clock plus the direct dependences
/// recorded since the previous snapshot.
struct DdSnapshot {
  LamportTime clock = 0;
  DependenceList deps;

  [[nodiscard]] std::int64_t bits() const { return 64 + deps.bits(); }
  [[nodiscard]] std::int64_t bytes() const { return bits() / 8; }
};

/// Sent by an application process when its (finite, replayed) script is
/// exhausted. Extension over the paper (see DESIGN.md §2.4): lets online
/// detectors terminate with "not detected" instead of blocking forever.
struct EndOfStream {};

// Every snapshot travels inside the packet's inline payload buffer.
static_assert(sim::Payload::fits_inline<VcSnapshot>);
static_assert(sim::Payload::fits_inline<DdSnapshot>);

/// Distributed-breakpoint request (the Miller-Choi [11] use case): freezes
/// an application process in its current state. Sent by detection monitors
/// when RunOptions::halt_on_detect is set.
struct Halt {};

// ---- Chandy-Lamport snapshot protocol payloads (reference [2]; see
// detect/chandy_lamport.h for the algorithm) ------------------------------

/// Marker flooded on every channel when a process records its state.
struct ClMarker {
  int round = 0;
};

/// Coordinator -> initiating process: start a snapshot round.
struct ClInitiate {
  int round = 0;
};

/// Process -> coordinator: one process's slice of the global snapshot.
struct ClReport {
  int round = 0;
  ProcessId pid;
  StateIndex state = 0;  ///< recorded local state
  bool pred = false;     ///< local predicate value in that state
  /// channel_counts[q] = messages from P_q recorded in the channel q->pid.
  std::vector<std::int64_t> channel_counts;
};

}  // namespace wcp::app

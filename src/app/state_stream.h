// Incremental-checker substrate: the interface between a stream of local
// snapshots and the detection state machines that consume it.
//
// Every online detector in this repo — token, centralized, the online
// Cooper-Marzullo lattice checker, the online slicer — is at heart a state
// machine fed one (vector clock, predicate) snapshot at a time. Historically
// each machine lived inside a sim::Node and owned its snapshot buffers; the
// streaming detection service (src/serve) needs the same machines fed from a
// wire protocol, over a SHARED per-connection snapshot buffer, with state
// below a garbage-collection frontier retired. StateStream/StreamCore are
// that extraction seam:
//
//   - StateStream: read-only view of per-slot snapshot sequences. Snapshots
//     on slot s are addressed by their 1-based arrival position; in
//     all-states streams (lattice/slicer) position == the state index of
//     Fig. 2, in candidate streams (token/centralized) the state index is
//     the snapshot's own clock component. base(s) is the GC floor: positions
//     below it have been retired and must never be read again.
//
//   - StreamCore: one detection state machine over a StateStream. on_state /
//     on_eos advance it; frontier(s) is its retention contract — the lowest
//     position on slot s the core may still read, so the stream owner can
//     retire everything below the minimum frontier across all cores sharing
//     the stream (the global-min frontier GC of the serve layer). collect()
//     tells the core to drop its own internal state below a floor.
//
// The sim::Node wrappers implement StateStream over the snapshot vectors
// they already keep (base forever 1 — simulator runs never GC), so the
// extraction changes no observable behavior of the simulator-hosted runs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"

namespace wcp::app {

/// Read-only view of per-slot snapshot sequences (see file comment for the
/// position addressing and GC contract).
class StateStream {
 public:
  virtual ~StateStream() = default;

  /// Number of predicate slots n.
  [[nodiscard]] virtual std::size_t slots() const = 0;
  /// Highest position appended on slot s (0 = nothing yet).
  [[nodiscard]] virtual StateIndex last(std::size_t s) const = 0;
  /// Lowest retained position on slot s (1 until the owner retires state).
  [[nodiscard]] virtual StateIndex base(std::size_t s) const = 0;
  /// True once slot s's stream has ended (no further positions will arrive).
  [[nodiscard]] virtual bool eos(std::size_t s) const = 0;
  /// Component t of the clock of the snapshot at (s, pos).
  /// Requires base(s) <= pos <= last(s).
  [[nodiscard]] virtual StateIndex clock(std::size_t s, StateIndex pos,
                                         std::size_t t) const = 0;
  /// Local-predicate value of the snapshot at (s, pos).
  [[nodiscard]] virtual bool pred(std::size_t s, StateIndex pos) const = 0;
};

/// Cost-accounting callbacks a core's host may install. All optional; the
/// sim::Node hosts forward them into the network metrics so the extracted
/// cores account exactly what the pre-extraction monoliths did.
struct CoreHooks {
  /// Abstract work units (one per state comparison / clock lookup).
  std::function<void(std::int64_t)> work;
  /// The core released the snapshot at (slot, pos) (centralized queue-head
  /// elimination); hosts use it for buffer accounting.
  std::function<void(std::size_t, StateIndex)> released;
  /// The token moved from slot `from` to slot `to` (TokenCore); hosts use it
  /// to charge the token message and later work to the right monitor.
  std::function<void(std::size_t from, std::size_t to)> hop;

  void add_work(std::int64_t units) const {
    if (work) work(units);
  }
  void release(std::size_t slot, StateIndex pos) const {
    if (released) released(slot, pos);
  }
  void token_hop(std::size_t from, std::size_t to) const {
    if (hop) hop(from, to);
  }
};

/// One incremental detection state machine over a StateStream.
class StreamCore {
 public:
  virtual ~StreamCore() = default;

  /// One more snapshot was appended on slot s (now at position last(s)).
  virtual void on_state(std::size_t s) = 0;
  /// Slot s's stream ended (eos(s) just became true).
  virtual void on_eos(std::size_t s) = 0;

  /// The verdict is final: no future snapshot can change it.
  [[nodiscard]] virtual bool done() const = 0;
  [[nodiscard]] virtual bool detected() const = 0;
  /// Detected cut in slot order; empty unless detected().
  [[nodiscard]] virtual const std::vector<StateIndex>& cut() const = 0;

  /// Retention contract: the lowest position on slot s this core may still
  /// read. Non-decreasing over time; last(s) + 1 once the core is done.
  [[nodiscard]] virtual StateIndex frontier(std::size_t s) const = 0;

  /// GC hook: drop internal state strictly below the per-slot floor (the
  /// stream owner guarantees floor[s] <= frontier(s)). Default: nothing.
  virtual void collect(std::span<const StateIndex> floor) {
    (void)floor;
  }

  /// Resident footprint of the core's own state (bytes, approximate),
  /// excluding the shared stream buffer. Default: 0.
  [[nodiscard]] virtual std::int64_t resident_bytes() const { return 0; }
};

}  // namespace wcp::app

// Chandy-Lamport distributed snapshots — reference [2] of the paper, the
// classic algorithm for STABLE global predicates, implemented here as the
// baseline the paper's unstable-predicate detectors improve on.
//
// A coordinator initiates a snapshot round; the initiating application
// process records its local state and floods marker messages; every process
// records on first marker, records each incoming channel until that
// channel's marker arrives, and reports (local state, local predicate,
// per-channel message counts) to the coordinator. Rounds repeat until the
// coordinator's stable-predicate callback accepts a snapshot or the round
// budget is exhausted.
//
// Model notes:
//  * Requires FIFO application channels (run with fifo_all = true) — the
//    classic CL assumption.
//  * "Receive" is the *consumption* of a message by the replay script, so
//    markers are processed in channel order relative to consumed messages
//    (deferred while earlier channel messages sit in the reorder buffer).
//    This keeps the recorded cut consistent with the Computation's
//    happened-before relation, which the tests verify.
//  * A snapshot round only completes on runs that consume every delivered
//    message (undelivered in-flight messages would defer a marker forever).
//
// The point of the comparison (tests/chandy_lamport_test.cc, bench E13):
// CL observes a stable predicate only at the NEXT snapshot after it became
// true — and can miss unstable predicates entirely — while the paper's
// detectors catch the exact first cut online.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/snapshot.h"
#include "detect/result.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::detect {

// Protocol payloads (ClMarker / ClInitiate / ClReport) live in
// app/snapshot.h; the application drivers participate in the protocol.

/// One completed snapshot round.
struct ClSnapshot {
  int round = 0;
  SimTime completed_at = 0;
  std::vector<StateIndex> cut;                          // width N
  std::vector<bool> pred;                               // width N
  std::vector<std::vector<std::int64_t>> channel;       // [from][to]

  [[nodiscard]] std::int64_t total_in_channels() const;
  /// The stable predicate of distributed termination: everyone passive,
  /// all channels empty.
  [[nodiscard]] bool all_passive_and_empty() const;
};

struct ClOptions {
  SimTime first_round_at = 1;     ///< virtual time of the first initiation
  SimTime inter_round_delay = 25; ///< delay between rounds
  int max_rounds = 64;
  /// Accepts a snapshot; detection stops the run. Defaults to
  /// all_passive_and_empty (termination detection).
  std::function<bool(const ClSnapshot&)> stable_predicate;
};

struct ClResult {
  bool detected = false;
  bool truncated = false;  ///< hit the event budget (network_config)
  std::vector<ClSnapshot> snapshots;  ///< every completed round
  SimTime detect_time = 0;
  SimTime end_time = 0;
  Metrics app_metrics;
  Metrics monitor_metrics;  ///< coordinator slot only
};

/// Runs repeated Chandy-Lamport snapshot rounds over a replay of `comp`
/// (with FIFO channels) until the stable predicate holds on a snapshot.
ClResult run_chandy_lamport(const Computation& comp, const RunOptions& opts,
                            const ClOptions& cl = {});

}  // namespace wcp::detect

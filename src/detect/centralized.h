// Centralized WCP checker — the Garg & Waldecker (TPDS'94) baseline the
// paper compares against (§1, §3.4).
//
// Every predicate process streams its candidate vector clocks to a single
// checker process, which keeps one FIFO queue per slot and repeatedly
// eliminates dominated queue heads: head_s is eliminated when it happened
// before some other head, i.e. head_t.vc[s] >= head_s.vc[s] for some t
// (an O(1) own-component test; the paper's two vector-clock properties).
// When all n heads are present and pairwise concurrent they form the first
// WCP cut.
//
// The elimination state machine lives in detect::CentralizedCore
// (detect/stream_core.h) so the streaming service can run it over wire-fed
// streams; this node hosts the core on the simulator and forwards the
// buffer/work accounting into the network metrics.
//
// The same node is the online GCP checker of reference [6] (Garg, Chase,
// Mitchell & Kilgore): given channel predicates, the snapshots also carry
// per-peer message counters, from which the core's channel step reads the
// messages in transit between two queue heads.
//
// Cost profile (E9): same O(n^2 m) total time as the token algorithm, but
// concentrated in one process, with O(n^2 m) buffer space at the checker.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "app/snapshot.h"
#include "app/snapshot_stream.h"
#include "detect/gcp.h"
#include "detect/result.h"
#include "detect/stream_core.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::detect {

class CentralizedChecker final : public sim::Node {
 public:
  struct Config {
    std::vector<ProcessId> slot_to_pid;
    std::shared_ptr<SharedDetection> shared;
    /// GCP runs only; every endpoint must be in slot_to_pid.
    std::vector<ChannelPredicate> channels;
  };

  explicit CentralizedChecker(Config cfg);

  void on_packet(sim::Packet&& p) override;

  [[nodiscard]] std::int64_t eliminations() const {
    return core_->eliminations();
  }

 private:
  [[nodiscard]] std::size_t n() const { return cfg_.slot_to_pid.size(); }
  [[nodiscard]] std::size_t slot_of(ProcessId pid) const;

  Config cfg_;
  std::vector<std::vector<app::VcSnapshot>> states_;  // per slot, in order
  app::SnapshotStateStream stream_;
  std::unique_ptr<CentralizedCore> core_;
};

/// Runs the centralized checker online over a replay of `comp`.
DetectionResult run_centralized(const Computation& comp,
                                const RunOptions& opts);

/// Runs the online centralized GCP checker over a replay of `comp`, with
/// channel counters on every snapshot (clocks never compressed). Requires
/// every channel endpoint to be a predicate process, which keeps the
/// piggybacked vector clocks wide enough to order every cut component.
DetectionResult run_gcp_centralized(const Computation& comp,
                                    std::span<const ChannelPredicate> channels,
                                    const RunOptions& opts);

}  // namespace wcp::detect

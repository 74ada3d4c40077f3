// Online Cooper-Marzullo detection — the actual architecture of reference
// [3]: every predicate process streams a snapshot of EVERY local state
// (vector clock + predicate value) to one checker, which constructs the
// lattice of consistent global states incrementally as snapshots arrive
// and reports the first (minimal-level) cut satisfying the WCP.
//
// This is the general-predicate baseline made online; its cost — the
// number of lattice cuts materialized, O(m^n) in the worst case — is what
// the paper's WCP-specialized detectors avoid. The offline
// detect_lattice() explores the same lattice post-hoc; the two must agree
// (tests/lattice_online_test.cc).
//
// The level-ordered exploration is the one lattice walk
// (detect/cut_walk.h), hosted over a live stream by
// detect::LatticeOnlineCore (detect/stream_core.h) so the streaming
// service can run it over wire-fed streams with frontier GC. This node
// hosts the core on the simulator (never garbage-collecting — simulator
// replays are bounded) and forwards the work accounting, one unit per
// clock component read, into the coordinator metrics.
#pragma once

#include <memory>
#include <vector>

#include "app/snapshot.h"
#include "app/snapshot_stream.h"
#include "common/cut_storage.h"
#include "detect/result.h"
#include "detect/stream_core.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::detect {

class LatticeChecker final : public sim::Node {
 public:
  struct Config {
    std::vector<ProcessId> slot_to_pid;
    std::shared_ptr<SharedDetection> shared;
    /// Stop (undetected) after materializing this many cuts (<0: never).
    std::int64_t max_cuts = -1;
  };

  explicit LatticeChecker(Config cfg);

  void on_packet(sim::Packet&& p) override;

  [[nodiscard]] std::int64_t cuts_explored() const {
    return core_->cuts_explored();
  }
  [[nodiscard]] std::int64_t max_frontier() const {
    return core_->max_frontier();
  }
  [[nodiscard]] CutStorageStats storage() const { return core_->storage(); }

 private:
  [[nodiscard]] std::size_t n() const { return cfg_.slot_to_pid.size(); }

  Config cfg_;
  std::vector<std::vector<app::VcSnapshot>> states_;  // per slot, by index
  std::vector<int> slot_of_pid_;
  app::SnapshotStateStream stream_;
  std::unique_ptr<LatticeOnlineCore> core_;
};

struct LatticeOnlineResult {
  bool detected = false;
  bool truncated = false;  ///< max_cuts or the event budget reached
  std::vector<StateIndex> cut;
  std::int64_t cuts_explored = 0;
  std::int64_t max_frontier = 0;
  SimTime detect_time = 0;
  Metrics app_metrics;
  Metrics monitor_metrics;
  CutStorageStats storage;  ///< checker-side cut-storage footprint
};

/// Runs the online Cooper-Marzullo checker over a replay of `comp`.
LatticeOnlineResult run_lattice_online(const Computation& comp,
                                       const RunOptions& opts,
                                       std::int64_t max_cuts = -1);

}  // namespace wcp::detect

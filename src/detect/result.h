// Shared result/option types for all detection algorithms.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "trace/trace_store_stats.h"

namespace wcp {
class Computation;
namespace app {
struct AppDriverOptions;
}  // namespace app
namespace sim {
struct NetworkConfig;
class Network;
}  // namespace sim
}  // namespace wcp

namespace wcp::detect {

/// Options common to every online (simulator-hosted) detection run.
struct RunOptions {
  std::uint64_t seed = 1;            ///< drives latency + pacing only
  sim::LatencyModel latency{};       ///< per-message delay distribution
  /// Separate latency for monitor-layer traffic (token/poll/leader); unset
  /// means the application latency applies everywhere.
  std::optional<sim::LatencyModel> monitor_latency;
  bool fifo_all = false;             ///< FIFO on all channels (default: only app->monitor, the §3.1 requirement)
  /// Singhal-Kshemkalyani differential compression of piggybacked vector
  /// clocks (vector-clock algorithms only; ablation E11).
  bool compress_clocks = false;
  SimTime step_delay = 2;            ///< application think-time upper bound
  /// Distributed breakpoint (Miller-Choi [11]): on detection, freeze every
  /// application process with a Halt message instead of stopping the
  /// simulation; the run then drains and DetectionResult::frozen_cut holds
  /// the states the processes froze in.
  bool halt_on_detect = false;

  /// Fault injection (sim/fault.h). When the plan is enabled, every channel
  /// is automatically run over the reliable transport (see network_config),
  /// since the detectors assume loss-free channels and FIFO app->monitor
  /// links (§2, §3.1). Crashes in the plan turn on token recovery
  /// (TokenLease, detect/stream_core.h).
  sim::FaultPlan faults;
};

/// Outcome of one detection run.
struct DetectionResult {
  bool detected = false;
  /// Detected cut over the n predicate processes, in predicate-slot order
  /// (component s = state index on predicate_processes()[s]).
  std::vector<StateIndex> cut;
  /// For direct-dependence runs: the cut over all N processes.
  std::vector<StateIndex> full_cut;
  /// For halt_on_detect runs: the state each application process froze in
  /// (width N; componentwise at or after the detected cut).
  std::vector<StateIndex> frozen_cut;
  SimTime detect_time = 0;  ///< virtual time when detect was set
  SimTime end_time = 0;     ///< virtual time when the run ended
  /// The event budget (network_config) ended the run: inconclusive.
  bool truncated = false;
  std::int64_t token_hops = 0;
  std::int64_t sim_events = 0;
  /// Simulator/network execution statistics (all-zero for offline runs).
  RunStats stats;
  Metrics app_metrics;      ///< per application process
  Metrics monitor_metrics;  ///< per monitor process (+ one coordinator slot)
  /// Injected faults and transport/recovery reactions (all-zero on
  /// fault-free runs; deterministic per seed + fault plan otherwise).
  FaultCounters faults;
  /// Columnar trace-store footprint when the run read ground-truth clocks
  /// through the store (all-zero for online runs, which do not report it).
  /// Deterministic per computation — independent of thread count.
  TraceStoreStats trace_store;

  /// One JSON object with the outcome, both metric layers, and the
  /// execution statistics. `include_wall_clock=false` drops the only
  /// nondeterministic field, making the output a pure function of
  /// (computation, seed, latency model).
  void write_json(json::Writer& w, bool include_wall_clock = true,
                  bool per_process = false) const;
};

std::ostream& operator<<(std::ostream& os, const DetectionResult& r);

/// Mutable state shared between the monitors of one run; the node that sets
/// `detected` stops the simulator.
struct SharedDetection {
  bool detected = false;
  std::vector<StateIndex> cut;
  SimTime detect_time = 0;
};

/// Builds the NetworkConfig every online runner uses from the common run
/// options, for a replay of `comp`. When the fault plan is enabled, all
/// channels are switched onto the reliable transport (the detectors'
/// channel assumptions require it). The event budget is a multiple of
/// (N + n^2)(m + 1): the paper's two work bounds (§3.4, §4.4), plus m = 0.
sim::NetworkConfig network_config(const RunOptions& opts,
                                  const Computation& comp);

/// The result of a finished run: the network-derived fields (timings,
/// stats, metrics, fault counters) plus the shared detection outcome.
DetectionResult finish_result(sim::Network& net,
                              const SharedDetection& shared);

/// Replays `comp` through application drivers (`drv`, at the step delay of
/// `opts`) into the monitors installed on `net`, runs the simulation and
/// returns the finished result. A halt-on-detect run also records the
/// state each application process froze in.
DetectionResult replay(sim::Network& net, const Computation& comp,
                       app::AppDriverOptions drv, const RunOptions& opts,
                       const SharedDetection& shared);

}  // namespace wcp::detect

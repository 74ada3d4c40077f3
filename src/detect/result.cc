#include "detect/result.h"

#include <ostream>

#include "app/app_driver.h"
#include "common/json.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::detect {

namespace {

// Events per unit of (N + n^2)(m + 1) a simulated run may take.
constexpr std::int64_t kEventBudgetFactor = 1000;

void write_cut(json::Writer& w, const std::vector<StateIndex>& cut) {
  w.begin_array();
  for (StateIndex s : cut) w.value(static_cast<std::int64_t>(s));
  w.end_array();
}

}  // namespace

void DetectionResult::write_json(json::Writer& w, bool include_wall_clock,
                                 bool per_process) const {
  w.begin_object();
  w.field("detected", detected);
  w.key("cut");
  write_cut(w, cut);
  if (!full_cut.empty()) {
    w.key("full_cut");
    write_cut(w, full_cut);
  }
  if (!frozen_cut.empty()) {
    w.key("frozen_cut");
    write_cut(w, frozen_cut);
  }
  w.field("detect_time", static_cast<std::int64_t>(detect_time));
  w.field("end_time", static_cast<std::int64_t>(end_time));
  w.field("token_hops", token_hops);
  w.key("sim");
  stats.write_json(w, include_wall_clock);
  w.key("app");
  app_metrics.write_json(w, per_process);
  w.key("monitor");
  monitor_metrics.write_json(w, per_process);
  // Only present on faulty runs, keeping fault-free reports byte-identical
  // to earlier schema revisions.
  if (faults.any()) {
    w.key("faults");
    faults.write_json(w);
  }
  // Same rule for the trace store: only runs that report it (offline
  // detectors reading ground-truth clocks) emit the block, and its counters
  // are thread-invariant, so cross-thread report diffs stay clean.
  if (trace_store.materialized()) {
    w.key("trace_store");
    w.begin_object();
    w.field("peak_bytes", trace_store.peak_bytes);
    w.field("clocks_interned", trace_store.clocks_interned);
    w.field("delta_entries", trace_store.delta_entries);
    w.field("delta_ratio", trace_store.delta_ratio);
    w.end_object();
  }
  w.end_object();
}

sim::NetworkConfig network_config(const RunOptions& opts,
                                  const Computation& comp) {
  const auto N = static_cast<std::int64_t>(comp.num_processes());
  const auto n = static_cast<std::int64_t>(comp.predicate_processes().size());
  sim::NetworkConfig ncfg;
  ncfg.num_processes = comp.num_processes();
  ncfg.max_events = kEventBudgetFactor * (N + n * n) *
                    (comp.max_messages_per_process() + 1);
  ncfg.latency = opts.latency;
  ncfg.monitor_latency = opts.monitor_latency;
  ncfg.fifo_all = opts.fifo_all;
  ncfg.seed = opts.seed;
  ncfg.faults = opts.faults;
  ncfg.reliable_all = opts.faults.enabled();
  return ncfg;
}

DetectionResult finish_result(sim::Network& net,
                              const SharedDetection& shared) {
  DetectionResult r;
  r.detected = shared.detected;
  r.cut = shared.cut;
  r.detect_time = shared.detect_time;
  r.end_time = net.simulator().now();
  r.truncated = net.truncated();
  r.sim_events = net.simulator().events_processed();
  r.stats = net.run_stats();
  r.token_hops = net.monitor_metrics().token_hops();
  r.app_metrics = net.app_metrics();
  r.monitor_metrics = net.monitor_metrics();
  r.faults = net.fault_counters();
  return r;
}

DetectionResult replay(sim::Network& net, const Computation& comp,
                       app::AppDriverOptions drv, const RunOptions& opts,
                       const SharedDetection& shared) {
  drv.step_delay = opts.step_delay;
  const auto drivers = app::install_app_drivers(net, comp, drv);
  net.start_and_run();
  DetectionResult r = finish_result(net, shared);
  if (opts.halt_on_detect && shared.detected) {
    r.frozen_cut.reserve(drivers.size());
    for (const auto* d : drivers) r.frozen_cut.push_back(d->current_state());
  }
  return r;
}

std::ostream& operator<<(std::ostream& os, const DetectionResult& r) {
  os << (r.detected ? "DETECTED" : r.truncated ? "inconclusive" : "not-detected");
  if (r.detected) {
    os << " cut=[";
    for (std::size_t s = 0; s < r.cut.size(); ++s) {
      if (s) os << ',';
      os << r.cut[s];
    }
    os << ']';
  }
  os << " t_detect=" << r.detect_time << " t_end=" << r.end_time
     << " hops=" << r.token_hops;
  if (r.truncated) os << " (truncated)";
  return os;
}

}  // namespace wcp::detect

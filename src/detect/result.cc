#include "detect/result.h"

#include <ostream>

#include "app/app_driver.h"
#include "common/json.h"
#include "sim/network.h"

namespace wcp::detect {

namespace {

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
                                  std::size_t num_processes) {
  sim::NetworkConfig ncfg;
  ncfg.num_processes = num_processes;
  ncfg.latency = opts.latency;
  ncfg.monitor_latency = opts.monitor_latency;
  ncfg.fifo_all = opts.fifo_all;
  ncfg.seed = opts.seed;
  ncfg.faults = opts.faults;
  ncfg.reliable = opts.reliable;
  ncfg.reliable_all = opts.faults.enabled();
  return ncfg;
}

TokenRecoveryOptions effective_recovery(const RunOptions& opts) {
  TokenRecoveryOptions rec = opts.recovery;
  rec.enabled = rec.enabled || opts.faults.has_crashes();
  return rec;
}

void finish_result(DetectionResult& r, sim::Network& net,
                   const SharedDetection& shared) {
  r.detected = shared.detected;
  r.cut = shared.cut;
  r.detect_time = shared.detect_time;
  r.end_time = net.simulator().now();
  r.sim_events = net.simulator().events_processed();
  r.stats = net.run_stats();
  r.token_hops = net.monitor_metrics().token_hops();
  r.app_metrics = net.app_metrics();
  r.monitor_metrics = net.monitor_metrics();
  r.faults = net.fault_counters();
}

DetectionResult replay(sim::Network& net, const Computation& comp,
                       app::AppDriverOptions drv, const RunOptions& opts,
                       const SharedDetection& shared) {
  drv.step_delay = opts.step_delay;
  const auto drivers = app::install_app_drivers(net, comp, drv);
  net.start_and_run(opts.max_events);
  DetectionResult r;
  if (opts.halt_on_detect && shared.detected) {
    r.frozen_cut.reserve(drivers.size());
    for (const auto* d : drivers) r.frozen_cut.push_back(d->current_state());
  }
  finish_result(r, net, shared);
  return r;
}

std::ostream& operator<<(std::ostream& os, const DetectionResult& r) {
  os << (r.detected ? "DETECTED" : "not-detected");
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
  return os;
}

}  // namespace wcp::detect

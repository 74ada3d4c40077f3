#include "detect/lattice_online.h"

#include <utility>

#include "app/app_driver.h"
#include "common/error.h"

namespace wcp::detect {

LatticeChecker::LatticeChecker(Config cfg)
    : cfg_(std::move(cfg)), stream_(states_) {
  WCP_REQUIRE(cfg_.shared != nullptr, "checker needs shared detection state");
  states_.resize(n());
  app::CoreHooks hooks;
  hooks.work = [this](std::int64_t units) {
    const ProcessId coord(static_cast<int>(net().num_processes()));
    net().add_monitor_work(coord, units);
  };
  core_ = std::make_unique<LatticeOnlineCore>(stream_, std::move(hooks),
                                              cfg_.max_cuts);
}

void LatticeChecker::on_packet(sim::Packet&& p) {
  WCP_CHECK_MSG(p.kind == MsgKind::kSnapshot || p.kind == MsgKind::kControl,
                "lattice checker got unexpected " << to_string(p.kind));
  if (p.kind == MsgKind::kControl || core_->truncated()) return;

  auto snap = sim::payload_cast<app::VcSnapshot>(std::move(p.payload));
  const ProcessId coord(static_cast<int>(net().num_processes()));
  net().monitor_buffer_change(coord, snap.bytes(), +1);

  if (slot_of_pid_.empty()) {
    slot_of_pid_.assign(net().num_processes(), -1);
    for (std::size_t s = 0; s < n(); ++s)
      slot_of_pid_[cfg_.slot_to_pid[s].idx()] = static_cast<int>(s);
  }
  const int slot = slot_of_pid_.at(p.from.pid.idx());
  WCP_CHECK_MSG(slot >= 0, "snapshot from non-predicate process " << p.from);
  const auto su = static_cast<std::size_t>(slot);

  // FIFO app->checker gives states in order; index == own clock component.
  const StateIndex k = snap.vclock[su];
  WCP_CHECK_MSG(k == static_cast<StateIndex>(states_[su].size()) + 1,
                "state stream gap at slot " << slot);
  states_[su].push_back(std::move(snap));

  core_->on_state(su);
  if (core_->done() && core_->detected()) {
    auto& shared = *cfg_.shared;
    shared.detected = true;
    shared.cut = core_->cut();
    shared.detect_time = net().simulator().now();
    net().simulator().stop();
  }
}

LatticeOnlineResult run_lattice_online(const Computation& comp,
                                       const RunOptions& opts,
                                       std::int64_t max_cuts) {
  const auto preds = comp.predicate_processes();
  WCP_REQUIRE(!preds.empty(), "empty predicate");

  sim::Network net(network_config(opts, comp));

  auto shared = std::make_shared<SharedDetection>();
  LatticeChecker::Config lc;
  lc.slot_to_pid.assign(preds.begin(), preds.end());
  lc.shared = shared;
  lc.max_cuts = max_cuts;
  auto checker = std::make_unique<LatticeChecker>(std::move(lc));
  auto* checker_ptr = checker.get();
  net.add_node(sim::NodeAddr::coordinator(), std::move(checker));

  app::AppDriverOptions drv;
  drv.mode = app::Instrumentation::kVectorClock;
  drv.step_delay = opts.step_delay;
  drv.snapshot_all_states = true;
  app::install_app_drivers(
      net, comp, drv, [](ProcessId) { return sim::NodeAddr::coordinator(); });

  net.start_and_run();

  LatticeOnlineResult r;
  r.detected = shared->detected;
  r.cut = shared->cut;
  r.truncated = net.truncated() ||
                (!shared->detected && max_cuts >= 0 &&
                 checker_ptr->cuts_explored() > max_cuts);
  r.cuts_explored = checker_ptr->cuts_explored();
  r.max_frontier = checker_ptr->max_frontier();
  r.detect_time = shared->detect_time;
  r.app_metrics = net.app_metrics();
  r.monitor_metrics = net.monitor_metrics();
  r.storage = checker_ptr->storage();
  return r;
}

}  // namespace wcp::detect

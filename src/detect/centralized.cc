#include "detect/centralized.h"

#include <utility>

#include "app/app_driver.h"
#include "common/error.h"

namespace wcp::detect {

CentralizedChecker::CentralizedChecker(Config cfg)
    : cfg_(std::move(cfg)), stream_(states_) {
  WCP_REQUIRE(cfg_.shared != nullptr, "checker needs shared detection state");
  states_.resize(n());
  app::CoreHooks hooks;
  // Comparisons and head eliminations happen inside the core; forward them
  // into the coordinator's metrics at the same call sites as before the
  // extraction (byte-identical reports).
  hooks.work = [this](std::int64_t units) {
    const ProcessId coord(static_cast<int>(net().num_processes()));
    net().add_monitor_work(coord, units);
  };
  hooks.released = [this](std::size_t s, StateIndex pos) {
    const ProcessId coord(static_cast<int>(net().num_processes()));
    net().monitor_buffer_change(
        coord, -states_[s][static_cast<std::size_t>(pos - 1)].bytes(), -1);
  };
  std::vector<CentralizedCore::Channel> channels;
  for (const ChannelPredicate& cp : cfg_.channels)
    channels.push_back({cp, slot_of(cp.from), slot_of(cp.to)});
  // Sent by the sender before its head minus received by the receiver at
  // its head, from the two heads' channel counters.
  auto transit = [this, channels](std::size_t c, StateIndex from_pos,
                                  StateIndex to_pos) {
    const CentralizedCore::Channel& ch = channels[c];
    const auto& from = states_[ch.from][static_cast<std::size_t>(from_pos - 1)];
    const auto& to = states_[ch.to][static_cast<std::size_t>(to_pos - 1)];
    return from.sent_to.at(ch.pred.to.idx()) -
           to.recv_from.at(ch.pred.from.idx());
  };
  core_ = std::make_unique<CentralizedCore>(
      stream_, std::move(hooks), std::move(channels), std::move(transit));
}

std::size_t CentralizedChecker::slot_of(ProcessId pid) const {
  std::size_t s = 0;
  while (s < n() && cfg_.slot_to_pid[s] != pid) ++s;
  WCP_CHECK_MSG(s < n(), "non-predicate process " << pid);
  return s;
}

void CentralizedChecker::on_packet(sim::Packet&& p) {
  WCP_CHECK_MSG(p.kind == MsgKind::kSnapshot || p.kind == MsgKind::kControl,
                "checker got unexpected " << to_string(p.kind));
  if (p.kind == MsgKind::kControl) return;  // end-of-stream marker

  auto snap = sim::payload_cast<app::VcSnapshot>(std::move(p.payload));
  // All buffering happens at the checker: this is precisely the O(n^2 m)
  // space concentration the distributed algorithm removes (§3.4).
  const ProcessId coord(static_cast<int>(net().num_processes()));
  net().monitor_buffer_change(coord, snap.bytes(), +1);
  // Receiving and storing an O(n)-word snapshot costs O(n) — the same unit
  // the token monitors pay per candidate, so work totals are comparable.
  net().add_monitor_work(coord, static_cast<std::int64_t>(n()));

  const std::size_t s = slot_of(p.from.pid);
  states_[s].push_back(std::move(snap));
  core_->on_state(s);

  if (core_->done() && core_->detected()) {
    auto& shared = *cfg_.shared;
    shared.detected = true;
    shared.cut = core_->cut();
    shared.detect_time = net().simulator().now();
    net().simulator().stop();
  }
}

DetectionResult run_centralized(const Computation& comp,
                                const RunOptions& opts) {
  const auto preds = comp.predicate_processes();
  const std::size_t n = preds.size();
  WCP_REQUIRE(n >= 1, "empty predicate");

  sim::Network net(network_config(opts, comp));

  auto shared = std::make_shared<SharedDetection>();
  std::vector<ProcessId> slot_to_pid(preds.begin(), preds.end());

  CentralizedChecker::Config cc;
  cc.slot_to_pid = slot_to_pid;
  cc.shared = shared;
  net.add_node(sim::NodeAddr::coordinator(),
               std::make_unique<CentralizedChecker>(std::move(cc)));

  // All predicate processes stream snapshots straight to the checker.
  app::AppDriverOptions drv;
  drv.mode = app::Instrumentation::kVectorClock;
  drv.step_delay = opts.step_delay;
  drv.compress_clocks = opts.compress_clocks;
  app::install_app_drivers(
      net, comp, drv, [](ProcessId) { return sim::NodeAddr::coordinator(); });

  net.start_and_run();
  return finish_result(net, *shared);
}

DetectionResult run_gcp_centralized(const Computation& comp,
                                    std::span<const ChannelPredicate> channels,
                                    const RunOptions& opts) {
  const auto preds = comp.predicate_processes();
  WCP_REQUIRE(!preds.empty(), "empty predicate");
  for (const auto& cp : channels)
    WCP_REQUIRE(comp.predicate_slot(cp.from) >= 0 &&
                    comp.predicate_slot(cp.to) >= 0,
                "channel endpoint of " << cp << " is not a predicate process");

  sim::Network net(network_config(opts, comp));
  auto shared = std::make_shared<SharedDetection>();
  CentralizedChecker::Config cc;
  cc.slot_to_pid.assign(preds.begin(), preds.end());
  cc.shared = shared;
  cc.channels.assign(channels.begin(), channels.end());
  net.add_node(sim::NodeAddr::coordinator(),
               std::make_unique<CentralizedChecker>(std::move(cc)));

  app::AppDriverOptions drv;
  drv.mode = app::Instrumentation::kVectorClock;
  drv.step_delay = opts.step_delay;
  drv.include_channel_counts = true;
  app::install_app_drivers(
      net, comp, drv, [](ProcessId) { return sim::NodeAddr::coordinator(); });

  net.start_and_run();
  return finish_result(net, *shared);
}

}  // namespace wcp::detect

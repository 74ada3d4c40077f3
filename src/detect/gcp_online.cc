#include "detect/gcp_online.h"

#include <utility>

#include "app/app_driver.h"
#include "common/error.h"

namespace wcp::detect {

GcpChecker::GcpChecker(Config cfg) : cfg_(std::move(cfg)) {
  WCP_REQUIRE(cfg_.shared != nullptr, "checker needs shared detection state");
  queues_.resize(n());
  in_dirty_.assign(n(), false);
}

void GcpChecker::on_packet(sim::Packet&& p) {
  WCP_CHECK_MSG(p.kind == MsgKind::kSnapshot || p.kind == MsgKind::kControl,
                "GCP checker got unexpected " << to_string(p.kind));
  if (p.kind == MsgKind::kControl) return;

  auto snap = sim::payload_cast<app::VcSnapshot>(std::move(p.payload));
  WCP_CHECK_MSG(!snap.sent_to.empty(),
                "GCP checker needs channel-count snapshots");
  const ProcessId coord(static_cast<int>(net().num_processes()));
  net().monitor_buffer_change(coord, snap.bytes(), +1);
  net().add_monitor_work(coord, static_cast<std::int64_t>(n()));

  if (slot_of_pid_.empty()) {
    slot_of_pid_.assign(net().num_processes(), -1);
    for (std::size_t s = 0; s < n(); ++s)
      slot_of_pid_[cfg_.slot_to_pid[s].idx()] = static_cast<int>(s);
  }
  const int slot = slot_of_pid_.at(p.from.pid.idx());
  WCP_CHECK_MSG(slot >= 0, "snapshot from non-predicate process " << p.from);

  auto& q = queues_[static_cast<std::size_t>(slot)];
  q.push_back(std::move(snap));
  if (q.size() == 1 && !in_dirty_[static_cast<std::size_t>(slot)]) {
    dirty_.push_back(static_cast<std::size_t>(slot));
    in_dirty_[static_cast<std::size_t>(slot)] = true;
  }
  process();
}

void GcpChecker::pop_head(std::size_t s) {
  const ProcessId coord(static_cast<int>(net().num_processes()));
  net().monitor_buffer_change(coord, -queues_[s].front().bytes(), -1);
  queues_[s].pop_front();
  ++eliminations_;
  if (!queues_[s].empty() && !in_dirty_[s]) {
    dirty_.push_back(s);
    in_dirty_[s] = true;
  }
}

void GcpChecker::process() {
  const ProcessId coord(static_cast<int>(net().num_processes()));

  while (true) {
    // Phase 1: consistency eliminations (identical to the WCP checker).
    while (!dirty_.empty()) {
      const std::size_t s = dirty_.front();
      dirty_.pop_front();
      in_dirty_[s] = false;
      if (queues_[s].empty()) continue;

      const VectorClock& head_s = queues_[s].front().vclock;
      bool s_eliminated = false;
      for (std::size_t t = 0; t < n() && !s_eliminated; ++t) {
        if (t == s || queues_[t].empty()) continue;
        const VectorClock& head_t = queues_[t].front().vclock;
        net().add_monitor_work(coord, 1);
        if (head_t[s] >= head_s[s]) {
          pop_head(s);
          s_eliminated = true;
        } else if (head_s[t] >= head_t[t]) {
          pop_head(t);
        }
      }
    }

    for (std::size_t s = 0; s < n(); ++s)
      if (queues_[s].empty()) return;  // wait for more snapshots

    // Phase 2: channel-predicate eliminations on the (consistent) head cut.
    bool channel_violation = false;
    for (const ChannelPredicate& cp : cfg_.channels) {
      ++channel_evals_;
      net().add_monitor_work(coord, 1);
      const auto from_slot =
          static_cast<std::size_t>(slot_of_pid_.at(cp.from.idx()));
      const auto to_slot =
          static_cast<std::size_t>(slot_of_pid_.at(cp.to.idx()));
      const std::int64_t transit =
          queues_[from_slot].front().sent_to[cp.to.idx()] -
          queues_[to_slot].front().recv_from[cp.from.idx()];
      if (cp.holds(transit)) continue;
      const std::size_t victim =
          cp.kind == ChannelPredicate::Kind::kAtLeast ? from_slot : to_slot;
      pop_head(victim);
      channel_violation = true;
      break;
    }
    if (channel_violation) continue;  // re-run consistency with the new head

    auto& shared = *cfg_.shared;
    shared.detected = true;
    shared.cut.resize(n());
    for (std::size_t s = 0; s < n(); ++s)
      shared.cut[s] = queues_[s].front().vclock[s];
    shared.detect_time = net().simulator().now();
    net().simulator().stop();
    return;
  }
}

DetectionResult run_gcp_centralized(const Computation& comp,
                                    std::span<const ChannelPredicate> channels,
                                    const RunOptions& opts) {
  const auto preds = comp.predicate_processes();
  const std::size_t n = preds.size();
  WCP_REQUIRE(n >= 1, "empty predicate");
  for (const auto& cp : channels) {
    WCP_REQUIRE(comp.predicate_slot(cp.from) >= 0 &&
                    comp.predicate_slot(cp.to) >= 0,
                "channel endpoint of " << cp
                                       << " is not a predicate process");
  }

  sim::Network net(network_config(opts, comp));

  auto shared = std::make_shared<SharedDetection>();

  GcpChecker::Config cc;
  cc.slot_to_pid.assign(preds.begin(), preds.end());
  cc.channels.assign(channels.begin(), channels.end());
  cc.shared = shared;
  net.add_node(sim::NodeAddr::coordinator(),
               std::make_unique<GcpChecker>(std::move(cc)));

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

#include "detect/direct_dep.h"

#include <utility>

#include "app/app_driver.h"
#include "common/error.h"

namespace wcp::detect {

DdMonitor::DdMonitor(Config cfg) : cfg_(std::move(cfg)) {
  WCP_REQUIRE(cfg_.shared != nullptr, "monitor needs shared detection state");
  next_red_ = cfg_.initial_next_red;
}

void DdMonitor::on_start() {
  if (cfg_.starts_with_token) {
    has_token_ = true;
    net().bump_token_hops();
  }
  drive();
}

void DdMonitor::on_packet(sim::Packet&& p) {
  switch (p.kind) {
    case MsgKind::kSnapshot: {
      auto snap = std::any_cast<app::DdSnapshot>(std::move(p.payload));
      net().monitor_buffer_change(pid(), snap.bytes(), +1);
      inbox_.push_back(std::move(snap));
      if (waiting_candidate_) {
        waiting_candidate_ = false;
        drive();
      }
      break;
    }
    case MsgKind::kToken: {
      WCP_CHECK(!has_token_);
      // The chain invariant: the token only ever travels to the chain head,
      // which is red (Lemma 4.2.3).
      WCP_CHECK(color_ == Color::kRed);
      has_token_ = true;
      net().bump_token_hops();
      drive();
      break;
    }
    case MsgKind::kPoll: {
      const auto poll = std::any_cast<DdPoll>(p.payload);
      handle_poll(p.from.pid, poll);
      break;
    }
    case MsgKind::kPollReply: {
      WCP_CHECK(poll_outstanding_);
      poll_outstanding_ = false;
      const auto reply = std::any_cast<DdPollReply>(p.payload);
      net().add_monitor_work(pid(), 1);
      if (reply.became_red) next_red_ = p.from.pid.value();
      ++poll_cursor_;
      drive();
      break;
    }
    case MsgKind::kControl:
      eos_ = true;
      break;
    default:
      WCP_CHECK_MSG(false, "DD monitor got " << to_string(p.kind));
  }
}

// The single state-machine pump. Safe to call at any time; it inspects the
// monitor's state and performs the next enabled action:
//   1. wait for an outstanding poll reply,
//   2. poll the next queued dependence,
//   3. commit a surviving tentative candidate (token holder only) and hand
//      the token down the chain,
//   4. consume candidates from the application stream (token holder, or any
//      red monitor in the §4.5 parallel mode).
void DdMonitor::drive() {
  while (true) {
    if (poll_outstanding_) return;

    if (poll_cursor_ < poll_queue_.size()) {
      send_next_poll();
      return;
    }

    if (tentative_ > G_) {
      // All dependences of every candidate up to the tentative one have
      // been polled; the candidate survived every poll raise of G.
      if (has_token_) commit_and_handoff();
      // Parallel non-holders hold the tentative candidate until the token
      // arrives (only the token visit may remove us from the chain).
      return;
    }
    tentative_ = 0;

    const bool may_consume =
        has_token_ || (cfg_.parallel && color_ == Color::kRed);
    if (!may_consume) return;

    // Fig. 4 repeat-loop: receive candidates, accumulating their
    // dependence lists, until one exceeds the elimination threshold G.
    if (inbox_.empty()) {
      waiting_candidate_ = true;
      return;
    }
    waiting_candidate_ = false;
    app::DdSnapshot snap = std::move(inbox_.front());
    inbox_.pop_front();
    net().monitor_buffer_change(pid(), -snap.bytes(), -1);
    net().add_monitor_work(
        pid(), 1 + static_cast<std::int64_t>(snap.deps.size()));
    for (const Dependence& d : snap.deps.items()) poll_queue_.push_back(d);
    if (snap.clock > G_) tentative_ = snap.clock;
    // Loop: poll newly queued dependences (or consume further candidates).
  }
}

void DdMonitor::send_next_poll() {
  const Dependence& dep = poll_queue_[poll_cursor_];
  WCP_CHECK_MSG(dep.source != pid(), "self-dependence is impossible");
  poll_outstanding_ = true;
  net().add_monitor_work(pid(), 1);
  send(sim::NodeAddr::monitor(dep.source), MsgKind::kPoll,
       DdPoll{dep.clock, next_red_}, /*bits=*/2 * 64);
}

void DdMonitor::commit_and_handoff() {
  WCP_CHECK(has_token_ && tentative_ > G_);
  G_ = tentative_;
  color_ = Color::kGreen;
  tentative_ = 0;
  poll_queue_.clear();
  poll_cursor_ = 0;
  has_token_ = false;

  const int next = next_red_;
  if (cfg_.on_handoff) cfg_.on_handoff(pid(), next);

  if (next < 0) {
    // Empty red chain: every monitor is green; the distributed G variables
    // form the first WCP cut (Theorem 4.3). The harness collects them.
    auto& shared = *cfg_.shared;
    shared.detected = true;
    shared.detect_time = net().simulator().now();
    if (cfg_.halt_apps) {
      for (std::size_t p = 0; p < cfg_.num_processes; ++p)
        send(sim::NodeAddr::app(ProcessId(static_cast<int>(p))),
             MsgKind::kControl, app::Halt{}, /*bits=*/1);
    } else {
      net().simulator().stop();
    }
    return;
  }
  send(sim::NodeAddr::monitor(ProcessId(next)), MsgKind::kToken, DdToken{},
       /*bits=*/1);
}

void DdMonitor::handle_poll(ProcessId from, const DdPoll& poll) {
  net().add_monitor_work(pid(), 1);
  const Color old = color_;
  if (poll.clock >= G_) {
    color_ = Color::kRed;
    G_ = poll.clock;
    if (tentative_ != 0 && tentative_ <= G_) tentative_ = 0;  // voided
  }
  const bool became_red = color_ == Color::kRed && old == Color::kGreen;
  if (became_red) next_red_ = poll.next_red;
  send(sim::NodeAddr::monitor(from), MsgKind::kPollReply,
       DdPollReply{became_red}, /*bits=*/1);
  if (cfg_.parallel && color_ == Color::kRed) drive();
}

DdInstallation install_dd_monitors(sim::Network& net, std::size_t N,
                                   const DdRunOptions& dd, bool halt_apps,
                                   const DdHandoffObserver& observer) {
  WCP_REQUIRE(N >= 1, "need at least one process");
  DdInstallation inst;
  inst.shared = std::make_shared<SharedDetection>();
  inst.monitors.resize(N, nullptr);
  for (std::size_t p = 0; p < N; ++p) {
    DdMonitor::Config mc;
    mc.num_processes = N;
    mc.parallel = dd.parallel;
    mc.halt_apps = halt_apps;
    mc.starts_with_token = (p == 0);
    mc.initial_next_red = p + 1 < N ? static_cast<int>(p + 1) : -1;
    mc.shared = inst.shared;
    mc.on_handoff = observer;
    auto mon = std::make_unique<DdMonitor>(std::move(mc));
    inst.monitors[p] = mon.get();
    net.add_node(sim::NodeAddr::monitor(ProcessId(static_cast<int>(p))),
                 std::move(mon));
  }
  return inst;
}

DetectionResult run_direct_dep(const Computation& comp, const RunOptions& opts,
                               const DdRunOptions& dd,
                               const DdInspector& inspector) {
  const std::size_t N = comp.num_processes();

  sim::Network net(network_config(opts, N));

  auto monitors = std::make_shared<std::vector<DdMonitor*>>();
  DdHandoffObserver observer;
  if (inspector)
    observer = [monitors, inspector](ProcessId from, int next) {
      inspector(*monitors, from, next);
    };

  auto inst = install_dd_monitors(net, N, dd, opts.halt_on_detect, observer);
  *monitors = inst.monitors;

  app::AppDriverOptions drv;
  drv.mode = app::Instrumentation::kDirectDependence;
  drv.relay_snapshots = true;
  DetectionResult r = replay(net, comp, drv, opts, *inst.shared);
  if (r.detected) {
    r.full_cut.resize(N);
    for (std::size_t p = 0; p < N; ++p) r.full_cut[p] = (*monitors)[p]->G();
    const auto preds = comp.predicate_processes();
    r.cut.resize(preds.size());
    for (std::size_t s = 0; s < preds.size(); ++s)
      r.cut[s] = r.full_cut[preds[s].idx()];
  }
  return r;
}

}  // namespace wcp::detect

#include "detect/direct_dep.h"

#include <deque>
#include <utility>

#include "app/app_driver.h"
#include "app/snapshot.h"
#include "common/error.h"

namespace wcp::detect {

DdCore::DdCore(ProcessId self, std::size_t N, bool parallel)
    : self_(self),
      parallel_(parallel),
      next_red_(self.idx() + 1 < N ? self.value() + 1 : -1),
      has_token_(self.value() == 0) {}

// The Fig. 4 repeat-loop as a pump: poll the candidate's dependences one at
// a time, then accept it if it survived every poll's raise of G (the token
// holder commits and hands off), else ask for the next candidate. Only the
// holder consumes candidates, or any red monitor in the §4.5 mode.
DdAction DdCore::next() {
  if (poll_outstanding_) return {};
  if (polled_ < polls_.size()) {
    const Dependence& dep = polls_[polled_];
    WCP_CHECK_MSG(dep.source != self_, "self-dependence is impossible");
    poll_outstanding_ = true;
    return {DdAction::kPoll, dep.source.value(), DdPoll{dep.clock, next_red_}};
  }
  if (candidate_ > G_) {
    // A parallel non-holder keeps the candidate until the token visits:
    // only that visit may take it off the chain.
    if (!has_token_) return {};
    G_ = candidate_;
    color_ = Color::kGreen;
    has_token_ = false;
    return {DdAction::kHandoff, next_red_, {}};
  }
  if (has_token_ || (parallel_ && color_ == Color::kRed))
    return {DdAction::kCandidate, -1, {}};
  return {};
}

DdAction DdCore::take_token() {
  WCP_CHECK(!has_token_);
  // The token only ever travels to the chain head, which is red (Lemma
  // 4.2.3).
  WCP_CHECK(color_ == Color::kRed);
  has_token_ = true;
  return next();
}

DdAction DdCore::on_candidate(LamportTime clock,
                              std::span<const Dependence> deps) {
  candidate_ = clock;
  polls_.assign(deps.begin(), deps.end());
  polled_ = 0;
  return next();
}

bool DdCore::on_poll(const DdPoll& poll) {
  const Color old = color_;
  if (poll.clock >= G_) {
    color_ = Color::kRed;
    G_ = poll.clock;
  }
  const bool became_red = color_ == Color::kRed && old == Color::kGreen;
  if (became_red) next_red_ = poll.next_red;
  return became_red;
}

DdAction DdCore::on_reply(ProcessId from, bool became_red) {
  WCP_CHECK(poll_outstanding_);
  poll_outstanding_ = false;
  if (became_red) next_red_ = from.value();
  ++polled_;
  return next();
}

namespace {

// What the monitors of one installation share.
struct DdGroup {
  std::shared_ptr<SharedDetection> shared;
  std::vector<const DdCore*> cores;
  DdInspector inspector;
  bool halt_apps = false;  // distributed breakpoint on detection
};

// The simulator host of one DdCore: feeds it the candidates its
// application process sends, turns its actions into packets and charges
// work, buffer and token-hop metrics.
class DdMonitor final : public sim::Node {
 public:
  DdMonitor(ProcessId self, std::size_t N, bool parallel,
            std::shared_ptr<const DdGroup> group)
      : core_(self, N, parallel), group_(std::move(group)) {}

  [[nodiscard]] const DdCore& core() const { return core_; }

  void on_start() override {
    if (core_.holding_token()) net().bump_token_hops();
    act(core_.next());
  }

  void on_packet(sim::Packet&& p) override {
    switch (p.kind) {
      case MsgKind::kSnapshot: {
        auto snap = sim::payload_cast<app::DdSnapshot>(std::move(p.payload));
        net().monitor_buffer_change(pid(), snap.bytes(), +1);
        inbox_.push_back(std::move(snap));
        act(core_.next());
        break;
      }
      case MsgKind::kToken:
        net().bump_token_hops();
        act(core_.take_token());
        break;
      case MsgKind::kPoll: {
        net().add_monitor_work(pid(), 1);
        const bool red = core_.on_poll(sim::payload_cast<DdPoll>(p.payload));
        send(sim::NodeAddr::monitor(p.from.pid), MsgKind::kPollReply,
             red, /*bits=*/1);
        act(core_.next());
        break;
      }
      case MsgKind::kPollReply:
        net().add_monitor_work(pid(), 1);
        act(core_.on_reply(p.from.pid, sim::payload_cast<bool>(p.payload)));
        break;
      case MsgKind::kControl:  // end of the application's stream
        break;
      default:
        WCP_CHECK_MSG(false, "DD monitor got " << to_string(p.kind));
    }
  }

 private:
  void act(DdAction a) {
    while (a.kind == DdAction::kCandidate && !inbox_.empty()) {
      app::DdSnapshot snap = std::move(inbox_.front());
      inbox_.pop_front();
      net().monitor_buffer_change(pid(), -snap.bytes(), -1);
      net().add_monitor_work(
          pid(), 1 + static_cast<std::int64_t>(snap.deps.size()));
      a = core_.on_candidate(snap.clock, snap.deps.items());
    }
    if (a.kind == DdAction::kPoll) {
      net().add_monitor_work(pid(), 1);
      send(sim::NodeAddr::monitor(ProcessId(a.to)), MsgKind::kPoll, a.poll,
           /*bits=*/2 * 64);
    } else if (a.kind == DdAction::kHandoff) {
      handoff(a.to);
    }
  }

  void handoff(int next) {
    const DdGroup& g = *group_;
    if (g.inspector) g.inspector(g.cores, pid(), next);
    if (next >= 0) {
      send(sim::NodeAddr::monitor(ProcessId(next)), MsgKind::kToken,
           DdToken{}, /*bits=*/1);
      return;
    }
    // Empty red chain: every monitor is green; the distributed G variables
    // form the first WCP cut (Theorem 4.3). The harness collects them.
    g.shared->detected = true;
    g.shared->detect_time = net().simulator().now();
    if (!g.halt_apps) {
      net().simulator().stop();
      return;
    }
    for (std::size_t p = 0; p < g.cores.size(); ++p)
      send(sim::NodeAddr::app(ProcessId(static_cast<int>(p))),
           MsgKind::kControl, app::Halt{}, /*bits=*/1);
  }

  DdCore core_;
  std::shared_ptr<const DdGroup> group_;
  std::deque<app::DdSnapshot> inbox_;
};

}  // namespace

void record_dd_cut(DetectionResult& r, const Computation& comp,
                   const std::vector<const DdCore*>& cores) {
  for (const DdCore* c : cores) r.full_cut.push_back(c->G());
  for (const ProcessId p : comp.predicate_processes())
    r.cut.push_back(r.full_cut[p.idx()]);
}

DdInstallation install_dd_monitors(sim::Network& net, std::size_t N,
                                   const DdRunOptions& dd, bool halt_apps,
                                   const DdInspector& inspector) {
  WCP_REQUIRE(N >= 1, "need at least one process");
  auto group = std::make_shared<DdGroup>();
  group->shared = std::make_shared<SharedDetection>();
  group->inspector = inspector;
  group->halt_apps = halt_apps;
  for (std::size_t p = 0; p < N; ++p) {
    const ProcessId self(static_cast<int>(p));
    auto mon = std::make_unique<DdMonitor>(self, N, dd.parallel, group);
    group->cores.push_back(&mon->core());
    net.add_node(sim::NodeAddr::monitor(self), std::move(mon));
  }
  return {group->shared, group->cores};
}

DetectionResult run_direct_dep(const Computation& comp, const RunOptions& opts,
                               const DdRunOptions& dd,
                               const DdInspector& inspector) {
  const std::size_t N = comp.num_processes();
  sim::Network net(network_config(opts, comp));
  const auto inst =
      install_dd_monitors(net, N, dd, opts.halt_on_detect, inspector);

  app::AppDriverOptions drv;
  drv.mode = app::Instrumentation::kDirectDependence;
  drv.relay_snapshots = true;
  DetectionResult r = replay(net, comp, drv, opts, *inst.shared);
  if (r.detected) record_dd_cut(r, comp, inst.cores);
  return r;
}

}  // namespace wcp::detect

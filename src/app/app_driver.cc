#include "app/app_driver.h"

#include <algorithm>
#include <utility>

#include "app/snapshot.h"
#include "common/error.h"

namespace wcp::app {

AppDriver::AppDriver(const Computation& comp, ProcessId self,
                     AppDriverOptions opts)
    : comp_(comp), opts_(opts), script_(comp.events(self)) {
  pred_slot_ = comp.predicate_slot(self);
  const std::size_t n = comp.predicate_processes().size();
  if (opts_.mode == Instrumentation::kVectorClock) {
    vclock_ = in_predicate()
                  ? VectorClock::initial(n, ProcessId(pred_slot_))
                  : VectorClock(n);
    if (opts_.compress_clocks) {
      last_sent_.assign(comp.num_processes(), VectorClock(n));
      last_seen_.assign(comp.num_processes(), VectorClock(n));
      send_seq_.assign(comp.num_processes(), 0);
      recv_seq_.assign(comp.num_processes(), 0);
    }
  }
  if (opts_.include_channel_counts) {
    sent_to_.assign(comp.num_processes(), 0);
    recv_from_.assign(comp.num_processes(), 0);
  }
  arrived_from_.assign(comp.num_processes(), 0);
  consumed_from_.assign(comp.num_processes(), 0);
}

void AppDriver::on_start() {
  emit_snapshot_if_needed();
  schedule_step();
}

void AppDriver::schedule_step() {
  if (step_scheduled_) return;
  step_scheduled_ = true;
  const SimTime delay =
      opts_.step_delay <= 1 ? 1 : net().rng().uniform_int(1, opts_.step_delay);
  after(delay, [this] {
    step_scheduled_ = false;
    step();
  });
}

void AppDriver::enter_new_state() {
  ++state_;
  if (opts_.mode == Instrumentation::kDirectDependence) {
    ++clock_;
    WCP_CHECK(clock_ == state_);  // §4.1: the counter numbers local states
  }
  emit_snapshot_if_needed();
}

void AppDriver::emit_snapshot_if_needed() {
  if (!opts_.emit_snapshots) return;
  const bool pred_holds = in_predicate() ? comp_.local_pred(pid(), state_)
                                         : opts_.relay_snapshots;
  if (!pred_holds && !(opts_.snapshot_all_states && in_predicate())) return;
  if (opts_.mode == Instrumentation::kVectorClock) {
    if (!in_predicate()) return;  // relays carry clocks but never snapshot
    VcSnapshot snap;
    snap.pred = pred_holds;
    snap.vclock = vclock_;
    if (opts_.include_channel_counts) {
      snap.sent_to = sent_to_;
      snap.recv_from = recv_from_;
    }
    const std::int64_t bits = snap.bits();
    send(opts_.monitor, MsgKind::kSnapshot, std::move(snap), bits);
  } else {
    DdSnapshot snap{clock_, std::move(deps_)};
    deps_.clear();  // a moved-from list is valid but unspecified
    const std::int64_t bits = snap.bits();
    send(opts_.monitor, MsgKind::kSnapshot, std::move(snap), bits);
  }
}

void AppDriver::step() {
  if (halted_) return;  // frozen at a distributed breakpoint
  if (done()) {
    const bool emits_snapshots =
        opts_.emit_snapshots &&
        (opts_.mode == Instrumentation::kDirectDependence
             ? (in_predicate() || opts_.relay_snapshots)
             : in_predicate());
    if (!eos_sent_ && emits_snapshots) {
      eos_sent_ = true;
      send(opts_.monitor, MsgKind::kControl, EndOfStream{}, 1);
    }
    return;
  }

  const Event& ev = script_[next_event_];
  if (ev.kind == EventKind::kSend) {
    const MessageRecord& mr = comp_.message(ev.msg);
    AppMessage msg;
    msg.id = ev.msg;
    if (opts_.mode == Instrumentation::kVectorClock) {
      if (opts_.compress_clocks) {
        msg.compressed = true;
        auto& last = last_sent_[mr.to.idx()];
        for (std::size_t j = 0; j < vclock_.width(); ++j)
          if (vclock_[j] != last[j])
            msg.diff.emplace_back(static_cast<int>(j), vclock_[j]);
        last = vclock_;
        msg.chan_seq = ++send_seq_[mr.to.idx()];
      } else {
        msg.vclock = vclock_;
      }
    } else {
      msg.clock = clock_;
    }
    const std::int64_t bits = msg.bits();
    if (opts_.include_channel_counts) ++sent_to_[mr.to.idx()];
    send(sim::NodeAddr::app(mr.to), MsgKind::kApplication, std::move(msg),
         bits);
    if (opts_.mode == Instrumentation::kVectorClock && in_predicate())
      vclock_.tick(ProcessId(pred_slot_));
    ++next_event_;
    enter_new_state();
    schedule_step();
    return;
  }

  // Receive: wait until the scripted message has arrived.
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [&](const AppMessage& m) { return m.id == ev.msg; });
  if (it == pending_.end()) return;  // on_packet will resume us
  AppMessage msg = std::move(*it);
  if (it + 1 != pending_.end()) *it = std::move(pending_.back());
  pending_.pop_back();

  const ProcessId msg_src = comp_.message(ev.msg).from;
  if (opts_.include_channel_counts) ++recv_from_[msg_src.idx()];
  if (opts_.mode == Instrumentation::kVectorClock) {
    if (msg.compressed) {
      const ProcessId src = comp_.message(ev.msg).from;
      // The differential technique is only sound when the channel delivers
      // (at the script level) in send order.
      WCP_CHECK_MSG(msg.chan_seq == ++recv_seq_[src.idx()],
                    "clock compression requires per-channel FIFO order");
      auto& seen = last_seen_[src.idx()];
      for (const auto& [j, v] : msg.diff)
        seen.set(ProcessId(j), v);
      vclock_.merge(seen);
    } else {
      vclock_.merge(msg.vclock);
    }
    if (in_predicate()) vclock_.tick(ProcessId(pred_slot_));
  } else {
    deps_.add(comp_.message(ev.msg).from, msg.clock);
  }
  ++next_event_;
  enter_new_state();
  cl_after_consume(msg_src);
  schedule_step();
}

void AppDriver::on_packet(sim::Packet&& p) {
  if (p.kind == MsgKind::kControl) {
    cl_on_control(p.from.pid, p);
    return;
  }
  WCP_CHECK_MSG(p.kind == MsgKind::kApplication,
                "application process got unexpected " << to_string(p.kind));
  auto msg = sim::payload_cast<AppMessage>(std::move(p.payload));
  ++arrived_from_[comp_.message(msg.id).from.idx()];
  pending_.push_back(std::move(msg));
  // If the script is blocked on this receive, resume.
  if (!step_scheduled_) schedule_step();
}

// ---------------------------------------------------------------------------
// Chandy-Lamport participation (reference [2]; detect/chandy_lamport.h).

void AppDriver::cl_on_control(ProcessId from, const sim::Packet& p) {
  if (sim::payload_cast<Halt>(&p.payload) != nullptr) {
    halted_ = true;  // freeze in the current state (Miller-Choi [11])
    return;
  }
  if (const auto* init = sim::payload_cast<ClInitiate>(&p.payload)) {
    cl_record(init->round);
    cl_check_complete();  // N == 1 edge case
    return;
  }
  const auto marker = sim::payload_cast<ClMarker>(p.payload);
  // Markers are ordered relative to *consumed* application messages: defer
  // this marker until every message from `from` that arrived before it has
  // been consumed by the script.
  if (consumed_from_[from.idx()] >= arrived_from_[from.idx()]) {
    cl_marker_processed(from, marker.round);
  } else {
    WCP_CHECK_MSG(cl_.deferred_round.empty() ||
                      cl_.deferred_round[from.idx()] == 0,
                  "overlapping snapshot rounds");
    if (cl_.deferred_round.empty()) {
      cl_.deferred_round.assign(comp_.num_processes(), 0);
      cl_.deferred_barrier.assign(comp_.num_processes(), -1);
    }
    cl_.deferred_round[from.idx()] = marker.round;
    cl_.deferred_barrier[from.idx()] = arrived_from_[from.idx()];
  }
}

void AppDriver::cl_record(int round) {
  if (cl_.recorded && cl_.round == round) return;
  WCP_CHECK_MSG(!cl_.recorded, "overlapping snapshot rounds");
  const std::size_t N = comp_.num_processes();
  cl_.round = round;
  cl_.recorded = true;
  cl_.state = state_;
  // Relays report the identically-true predicate, matching §4's convention.
  cl_.pred = in_predicate() ? comp_.local_pred(pid(), state_) : true;
  cl_.missing = static_cast<int>(N) - 1;
  cl_.channel_counts.assign(N, 0);
  cl_.marker_done.assign(N, false);
  for (std::size_t q = 0; q < N; ++q) {
    if (q == pid().idx()) continue;
    send(sim::NodeAddr::app(ProcessId(static_cast<int>(q))), MsgKind::kControl,
         ClMarker{round}, /*bits=*/64);
  }
}

void AppDriver::cl_marker_processed(ProcessId from, int round) {
  if (!cl_.recorded) cl_record(round);
  WCP_CHECK(cl_.round == round && !cl_.marker_done[from.idx()]);
  cl_.marker_done[from.idx()] = true;
  --cl_.missing;
  cl_check_complete();
}

void AppDriver::cl_after_consume(ProcessId from) {
  ++consumed_from_[from.idx()];
  if (cl_.recorded && !cl_.marker_done[from.idx()])
    ++cl_.channel_counts[from.idx()];
  if (!cl_.deferred_round.empty() && cl_.deferred_round[from.idx()] != 0 &&
      consumed_from_[from.idx()] >= cl_.deferred_barrier[from.idx()]) {
    const int round = cl_.deferred_round[from.idx()];
    cl_.deferred_round[from.idx()] = 0;
    cl_.deferred_barrier[from.idx()] = -1;
    cl_marker_processed(from, round);
  }
}

void AppDriver::cl_check_complete() {
  if (!cl_.recorded || cl_.missing > 0) return;
  ClReport report;
  report.round = cl_.round;
  report.pid = pid();
  report.state = cl_.state;
  report.pred = cl_.pred;
  report.channel_counts = cl_.channel_counts;
  const std::int64_t bits =
      64 * (2 + static_cast<std::int64_t>(report.channel_counts.size()));
  send(sim::NodeAddr::coordinator(), MsgKind::kControl, std::move(report),
       bits);
  cl_.recorded = false;  // ready for the next round
}

std::vector<AppDriver*> install_app_drivers(
    sim::Network& net, const Computation& comp, AppDriverOptions base,
    const std::function<sim::NodeAddr(ProcessId)>& monitor_of) {
  std::vector<AppDriver*> drivers;
  drivers.reserve(comp.num_processes());
  for (std::size_t p = 0; p < comp.num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    AppDriverOptions opts = base;
    opts.monitor = monitor_of ? monitor_of(pid) : sim::NodeAddr::monitor(pid);
    auto driver = std::make_unique<AppDriver>(comp, pid, opts);
    drivers.push_back(driver.get());
    net.add_node(sim::NodeAddr::app(pid), std::move(driver));
  }
  return drivers;
}

}  // namespace wcp::app

#include "detect/token_vc.h"

#include <utility>

#include "app/app_driver.h"
#include "common/error.h"

namespace wcp::detect {

TokenVcMonitor::TokenVcMonitor(Config cfg) : cfg_(std::move(cfg)) {
  WCP_REQUIRE(cfg_.shared != nullptr, "monitor needs shared detection state");
  WCP_REQUIRE(cfg_.slot >= 0 &&
                  static_cast<std::size_t>(cfg_.slot) < cfg_.slot_to_pid.size(),
              "bad slot " << cfg_.slot);
}

void TokenVcMonitor::on_start() {
  recovering_ = net().has_crashes();
  if (cfg_.slot == 0 && !grouped()) {  // §3.5 tokens come from the leader
    token_.emplace(n());
    process_token();
  }
}

void TokenVcMonitor::on_crash() {
  // The held token is the one genuinely volatile piece of monitor state;
  // everything else (inbox log, last-accept memory, guardian checkpoint) is
  // modeled as stable storage. The guardian that forwarded us the token
  // regenerates it when our heartbeats stop.
  token_.reset();
  waiting_ = false;
  stood_down_ = false;
}

void TokenVcMonitor::on_restart() {
  if (cfg_.shared->detected) return;
  // Genesis regeneration: if this monitor created the token and it never
  // left (so no guardian holds a checkpoint), the crash destroyed the only
  // copy — recreate it. The fast-forward rule in process_token restores the
  // progress recorded in the durable last-accept memory.
  if (cfg_.slot == 0 && !grouped() && !forwarded_ever_ && !token_.has_value()) {
    ++net().fault_counters().token_regenerations;
    token_.emplace(n());
    process_token();
  }
}

void TokenVcMonitor::on_packet(sim::Packet&& p) {
  switch (p.kind) {
    case MsgKind::kSnapshot: {
      auto snap = sim::payload_cast<app::VcSnapshot>(std::move(p.payload));
      net().monitor_buffer_change(pid(), snap.bytes(), +1);
      inbox_.push_back(std::move(snap));
      if (waiting_) process_token();
      break;
    }
    case MsgKind::kToken:
      on_token(std::move(p));
      break;
    case MsgKind::kControl:
      if (p.payload.type() == typeid(TokenStandDown)) {
        checkpoint_.reset();  // the successor moved the token on, or stood down
        break;
      }
      if (p.payload.type() == typeid(TokenHeartbeat)) {
        lease_.heartbeat(
            sim::payload_cast<TokenHeartbeat>(std::move(p.payload)).incarnation,
            net().simulator().now());
        break;
      }
      eos_ = true;  // EndOfStream: if we starve now, the run ends idle
      if (recovering_ && starved()) stand_down(*token_);
      break;
    default:
      WCP_CHECK_MSG(false, "token-VC monitor got " << to_string(p.kind));
  }
}

void TokenVcMonitor::on_token(sim::Packet&& p) {
  auto in = sim::payload_cast<VcToken>(std::move(p.payload));
  net().bump_token_hops();
  const auto s = static_cast<std::size_t>(cfg_.slot);
  if (!recovering_) {
    WCP_CHECK(!token_.has_value());
    // The token is only ever sent to a red slot (Fig. 3 routing).
    WCP_CHECK(in.color[s] == Color::kRed);
  }
  stood_down_ = false;  // a fresh token deserves a fresh stand-down notice
  if (token_.has_value()) {
    // Duplicate from a guardian's false-positive regeneration: fold it into
    // the live token (per-slot max — see merge_token) and re-examine.
    merge_token(*token_, in);
  } else {
    token_ = std::move(in);
    guardian_ = p.from;
  }
  process_token();
}

void TokenVcMonitor::process_token() {
  auto& tok = *token_;
  const auto s = static_cast<std::size_t>(cfg_.slot);

  // Fast-forward (recovery): a regenerated token can lag this monitor's
  // durable last-accept memory. Catch it up before consuming candidates,
  // otherwise a stale token would wait for candidates that were already
  // accepted — and consumed — by its lost predecessor.
  if (has_last_ && tok.color[s] == Color::kRed && last_G_ > tok.G[s]) {
    tok.G[s] = last_G_;
    tok.color[s] = Color::kGreen;
    tok.V[s] = last_V_;
  }

  // The Fig. 3 holder step on this monitor's inbox (§3.5: own group only).
  const StateIndex before = tok.G[s];
  const TokenStep step = TokenCore::step(
      tok, s,
      [&]() -> std::optional<VectorClock> {
        if (inbox_.empty()) return std::nullopt;
        app::VcSnapshot snap = std::move(inbox_.front());
        inbox_.pop_front();
        WCP_CHECK(snap.vclock.width() == n());
        net().monitor_buffer_change(pid(), -snap.bytes(), -1);
        // Examining (and possibly eliminating) one candidate is O(n): the
        // snapshot was received, copied, and its own component compared.
        net().add_monitor_work(pid(), static_cast<std::int64_t>(n()));
        return std::move(snap.vclock);
      },
      [&](std::size_t j) {
        return !grouped() || cfg_.group_of_slot[j] == cfg_.group_of_slot[s];
      });
  if (step.kind == TokenStep::kStalled) {
    enter_waiting();
    return;
  }
  WCP_CHECK(tok.V[s][s] == tok.G[s]);
  if (tok.G[s] != before) {  // accepted a candidate: remember it durably
    last_G_ = tok.G[s];
    last_V_ = tok.V[s];
    has_last_ = true;
  }
  waiting_ = false;
  // The step's Fig. 3 for-loop costs O(n).
  net().add_monitor_work(pid(), static_cast<std::int64_t>(n()));
  route(step);
}

void TokenVcMonitor::enter_waiting() {
  waiting_ = true;
  if (!recovering_) return;
  if (starved()) {
    stand_down(*token_);
    return;
  }
  arm_heartbeat();
}

void TokenVcMonitor::stand_down(const VcToken& tok) {
  // Tells the guardian of `tok` to stop guarding it: a Fig. 3 token moved on
  // or was detected, or the token will never move again (blocked with the
  // stream over, or stranded: see TokenLease), and no recovery timer may
  // keep the simulation alive on an undetectable run.
  if (stood_down_) return;
  stood_down_ = true;
  if (grouped()) {
    send(sim::NodeAddr::coordinator(), MsgKind::kControl,
         TokenStandDown{tok.group, tok.incarnation}, /*bits=*/96);
  } else if (guardian_) {
    send(*guardian_, MsgKind::kControl, TokenStandDown{}, /*bits=*/1);
  }
}

void TokenVcMonitor::arm_heartbeat() {
  if (hb_armed_) return;
  // Genesis holder before the first forward has no guardian to reassure
  // (it self-recovers in on_restart instead).
  if (!grouped() && !guardian_) return;
  hb_armed_ = true;
  after(TokenLease::kHeartbeat, [this] {
    hb_armed_ = false;
    if (!waiting_ || !token_.has_value() || cfg_.shared->detected) return;
    if (starved()) {
      stand_down(*token_);
      return;
    }
    send(grouped() ? sim::NodeAddr::coordinator() : *guardian_,
         MsgKind::kControl,
         TokenHeartbeat{token_->group, token_->incarnation}, /*bits=*/96);
    ++net().fault_counters().heartbeats;
    arm_heartbeat();
  });
}

void TokenVcMonitor::arm_watchdog(SimTime delay) {
  if (wd_armed_) return;
  wd_armed_ = true;
  after(delay, [this] {
    wd_armed_ = false;
    if (!checkpoint_.has_value() || cfg_.shared->detected) return;
    const SimTime now = net().simulator().now();
    if (!lease_.expired(now)) {  // a heartbeat extended the lease
      arm_watchdog(lease_.deadline() - now);
      return;
    }
    if (TokenLease::stranded(*checkpoint_, net(), cfg_.slot_to_pid, {}, -1)) {
      checkpoint_.reset();  // undetectable; let the run drain
      return;
    }
    // Lease expired without a heartbeat or release: the successor lost the
    // token. Re-issue the checkpointed copy under a new incarnation. If the
    // successor was merely slow, merge_token folds the duplicate away.
    ++net().fault_counters().token_regenerations;
    checkpoint_->incarnation = lease_.issue(now);
    VcToken copy = *checkpoint_;
    const std::int64_t bits = copy.bits(/*with_v=*/false);
    send(sim::NodeAddr::monitor(
             cfg_.slot_to_pid[static_cast<std::size_t>(successor_slot_)]),
         MsgKind::kToken, std::move(copy), bits);
    arm_watchdog(TokenLease::kLease);
  });
}

void TokenVcMonitor::route(const TokenStep& step) {
  const bool forward = step.kind == TokenStep::kForward;
  if (cfg_.observer) cfg_.observer(*token_, cfg_.slot, !grouped() && !forward);

  VcToken out = std::move(*token_);
  token_.reset();

  if (forward) {
    const std::int64_t bits = out.bits(/*with_v=*/grouped());
    if (recovering_) {
      if (TokenLease::stranded(out, net(), cfg_.slot_to_pid,
                               cfg_.group_of_slot, out.group)) {
        // Every red slot left is one no monitor will advance again.
        stand_down(out);
        return;
      }
      if (!grouped()) {
        // Become the successor's guardian: checkpoint what we forward under
        // a fresh lease and watch for its heartbeats; release our own.
        out.incarnation = lease_.issue(net().simulator().now());
        checkpoint_ = out;
        successor_slot_ = static_cast<int>(step.next);
        arm_watchdog(TokenLease::kLease);
        stand_down(out);
      }
    }
    forwarded_ever_ = true;
    send(sim::NodeAddr::monitor(cfg_.slot_to_pid[step.next]), MsgKind::kToken,
         std::move(out), bits);
    return;
  }

  if (grouped()) {
    // No red state left inside this group: return the token to the leader,
    // which merges it with the other groups' tokens (§3.5).
    const std::int64_t bits = out.bits(/*with_v=*/true);
    forwarded_ever_ = true;
    send(sim::NodeAddr::coordinator(), MsgKind::kToken, std::move(out), bits);
    return;
  }

  // Single-token mode: all slots green => first WCP cut found (Thm 3.2).
  auto& shared = *cfg_.shared;
  shared.detected = true;
  shared.cut = out.G;
  shared.detect_time = net().simulator().now();
  if (recovering_) stand_down(out);
  if (cfg_.halt_apps) {
    // Distributed breakpoint: freeze the application and let the run
    // drain; the harness reads the frozen states afterwards.
    for (std::size_t p = 0; p < net().num_processes(); ++p)
      send(sim::NodeAddr::app(ProcessId(static_cast<int>(p))),
           MsgKind::kControl, app::Halt{}, /*bits=*/1);
  } else {
    net().simulator().stop();
  }
}

std::shared_ptr<SharedDetection> install_token_vc_monitors(
    sim::Network& net, const std::vector<ProcessId>& slot_to_pid,
    const VcTokenObserver& observer, bool halt_apps) {
  WCP_REQUIRE(!slot_to_pid.empty(), "empty predicate");
  auto shared = std::make_shared<SharedDetection>();
  for (std::size_t s = 0; s < slot_to_pid.size(); ++s) {
    TokenVcMonitor::Config mc;
    mc.slot = static_cast<int>(s);
    mc.slot_to_pid = slot_to_pid;
    mc.shared = shared;
    mc.observer = observer;
    mc.halt_apps = halt_apps;
    net.add_node(sim::NodeAddr::monitor(slot_to_pid[s]),
                 std::make_unique<TokenVcMonitor>(std::move(mc)));
  }
  return shared;
}

DetectionResult run_token_vc(const Computation& comp, const RunOptions& opts,
                             const VcTokenObserver& observer) {
  const auto preds = comp.predicate_processes();
  sim::Network net(network_config(opts, comp));
  std::vector<ProcessId> slot_to_pid(preds.begin(), preds.end());
  auto shared = install_token_vc_monitors(net, slot_to_pid, observer,
                                          opts.halt_on_detect);

  app::AppDriverOptions drv;
  drv.compress_clocks = opts.compress_clocks;
  return replay(net, comp, drv, opts, *shared);
}

}  // namespace wcp::detect

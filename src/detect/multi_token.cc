#include "detect/multi_token.h"

#include <algorithm>
#include <utility>

#include "app/app_driver.h"
#include "app/snapshot.h"
#include "common/error.h"

namespace wcp::detect {

MultiTokenLeader::MultiTokenLeader(Config cfg)
    : cfg_(std::move(cfg)), canonical_(n()) {
  WCP_REQUIRE(cfg_.shared != nullptr, "leader needs shared detection state");
  WCP_REQUIRE(cfg_.num_groups >= 1, "need at least one group");
  const auto g = static_cast<std::size_t>(cfg_.num_groups);
  incarnation_.assign(g, 0);
  outstanding_group_.assign(g, 0);
  starved_.assign(g, 0);
  deadline_.assign(g, 0);
}

void MultiTokenLeader::on_start() {
  // Every slot starts red, so every group needs a token.
  cross_check_and_dispatch();
}

void MultiTokenLeader::on_packet(sim::Packet&& p) {
  if (p.kind == MsgKind::kControl) {
    const SimTime now = net().simulator().now();
    if (p.payload.type() == typeid(TokenHeartbeat)) {
      const auto hb = sim::payload_cast<TokenHeartbeat>(std::move(p.payload));
      const auto g = static_cast<std::size_t>(hb.group);
      if (hb.group >= 0 && g < outstanding_group_.size() &&
          outstanding_group_[g] && hb.incarnation == incarnation_[g])
        deadline_[g] = now + cfg_.recovery.lease;
      return;
    }
    if (p.payload.type() == typeid(TokenStarved)) {
      const auto st = sim::payload_cast<TokenStarved>(std::move(p.payload));
      const auto g = static_cast<std::size_t>(st.group);
      if (st.group >= 0 && g < outstanding_group_.size() &&
          st.incarnation == incarnation_[g]) {
        starved_[g] = 1;
        group_done(st.group);
      }
      return;
    }
    WCP_CHECK_MSG(false, "leader got unexpected control payload");
  }
  WCP_CHECK_MSG(p.kind == MsgKind::kToken,
                "leader got unexpected " << to_string(p.kind));
  auto tok = sim::payload_cast<VcToken>(std::move(p.payload));
  net().bump_token_hops();
  // A group token only ever advances information: member slots change
  // under the single-token rules, other slots only turn red at a raised G
  // (an elimination), so merge_token's per-slot maximum is sound.
  net().add_monitor_work(ProcessId(static_cast<int>(net().num_processes())),
                         static_cast<std::int64_t>(n()));
  merge_token(canonical_, tok);
  // A stale incarnation is a duplicate the guardian logic already replaced:
  // its information was merged above, but only the live token's return may
  // close out the group.
  const auto g = static_cast<std::size_t>(tok.group);
  WCP_CHECK(tok.group >= 0 && g < outstanding_group_.size());
  if (!outstanding_group_[g] || tok.incarnation != incarnation_[g]) {
    WCP_CHECK_MSG(cfg_.recovery.enabled, "stale token without recovery");
    return;
  }
  group_done(tok.group);
}

void MultiTokenLeader::group_done(int group) {
  const auto g = static_cast<std::size_t>(group);
  if (!outstanding_group_[g]) return;
  outstanding_group_[g] = 0;
  --outstanding_;
  WCP_CHECK(outstanding_ >= 0);
  if (outstanding_ == 0) cross_check_and_dispatch();
}

void MultiTokenLeader::cross_check_and_dispatch() {
  const ProcessId coord(static_cast<int>(net().num_processes()));

  // Cross-group consistency check: a green slot t carries the vector clock
  // V[t] of its accepted candidate, so Fig. 3's elimination run from t
  // eliminates every s with (s, G[s]) -> (t, G[t]), at one work unit per
  // (t, s) pair. The green list is frozen before applying eliminations; an
  // eliminated witness remains sound (its candidate was real and only
  // precedes later ones).
  std::vector<std::size_t> greens;
  for (std::size_t t = 0; t < n(); ++t)
    if (canonical_.color[t] == Color::kGreen) greens.push_back(t);

  for (std::size_t t : greens) {
    net().add_monitor_work(coord, static_cast<std::int64_t>(n()) - 1);
    TokenCore::eliminate(canonical_, t, canonical_.V[t]);
  }

  const bool all_green =
      std::all_of(canonical_.color.begin(), canonical_.color.end(),
                  [](Color c) { return c == Color::kGreen; });
  if (all_green) {
    auto& shared = *cfg_.shared;
    shared.detected = true;
    shared.cut = canonical_.G;
    shared.detect_time = net().simulator().now();
    if (cfg_.halt_apps) {
      for (std::size_t p = 0; p < net().num_processes(); ++p)
        send(sim::NodeAddr::app(ProcessId(static_cast<int>(p))),
             MsgKind::kControl, app::Halt{}, /*bits=*/1);
    } else {
      net().simulator().stop();
    }
    return;
  }

  std::vector<bool> needs(static_cast<std::size_t>(cfg_.num_groups), false);
  bool starved_red = false;
  for (std::size_t s = 0; s < n(); ++s) {
    if (canonical_.color[s] != Color::kRed) continue;
    const auto g = static_cast<std::size_t>(cfg_.group_of_slot[s]);
    if (starved_[g]) {
      // The group's candidate stream dried up while a slot still needs to
      // advance: the predicate is undetectable; let the run drain.
      starved_red = true;
      continue;
    }
    needs[g] = true;
  }

  for (int g = 0; g < cfg_.num_groups; ++g)
    if (needs[static_cast<std::size_t>(g)]) dispatch(g, /*regenerated=*/false);
  WCP_CHECK_MSG(outstanding_ > 0 || starved_red,
                "leader stuck: red slots but no dispatch");
}

void MultiTokenLeader::dispatch(int group, bool regenerated) {
  const auto gi = static_cast<std::size_t>(group);
  int target = -1;
  for (std::size_t s = 0; s < n(); ++s) {
    if (cfg_.group_of_slot[s] != group || canonical_.color[s] != Color::kRed)
      continue;
    // Under recovery, skip slots whose monitor died for good — their
    // candidates can never advance, but another member's might.
    if (cfg_.recovery.enabled &&
        net().is_down_forever(sim::NodeAddr::monitor(cfg_.slot_to_pid[s])))
      continue;
    target = static_cast<int>(s);
    break;
  }
  if (target < 0) {
    // Every red slot of the group is permanently dead: undetectable.
    WCP_CHECK(cfg_.recovery.enabled);
    starved_[gi] = 1;
    if (regenerated) group_done(group);
    return;
  }
  if (!regenerated) {
    ++outstanding_;
    outstanding_group_[gi] = 1;
  }
  ++incarnation_[gi];
  deadline_[gi] = net().simulator().now() + cfg_.recovery.lease;
  if (cfg_.recovery.enabled) arm_watchdog();
  VcToken copy = canonical_;
  copy.group = group;
  copy.incarnation = incarnation_[gi];
  const std::int64_t bits = copy.bits(/*with_v=*/true);
  send(sim::NodeAddr::monitor(
           cfg_.slot_to_pid[static_cast<std::size_t>(target)]),
       MsgKind::kToken, std::move(copy), bits);
}

void MultiTokenLeader::arm_watchdog() {
  if (wd_armed_) return;
  wd_armed_ = true;
  after(cfg_.recovery.heartbeat, [this] {
    wd_armed_ = false;
    if (cfg_.shared->detected) return;
    const SimTime now = net().simulator().now();
    bool any = false;
    for (int g = 0; g < cfg_.num_groups; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      if (!outstanding_group_[gi]) continue;
      if (now >= deadline_[gi]) {
        // Lease expired: the group's token (and maybe its holder) is gone.
        // Re-issue from the canonical merged state under a new incarnation.
        ++net().fault_counters().token_regenerations;
        dispatch(g, /*regenerated=*/true);
      }
      if (outstanding_group_[gi]) any = true;
    }
    if (any) arm_watchdog();
  });
}

DetectionResult run_multi_token(const Computation& comp,
                                const RunOptions& opts,
                                const MultiTokenOptions& mt) {
  const auto preds = comp.predicate_processes();
  const std::size_t n = preds.size();
  WCP_REQUIRE(n >= 1, "empty predicate");
  const int g = std::clamp(mt.num_groups, 1, static_cast<int>(n));

  sim::Network net(network_config(opts, comp.num_processes()));
  const TokenRecoveryOptions recovery = effective_recovery(opts);

  auto shared = std::make_shared<SharedDetection>();
  std::vector<ProcessId> slot_to_pid(preds.begin(), preds.end());
  std::vector<int> group_of_slot(n);
  for (std::size_t s = 0; s < n; ++s)
    group_of_slot[s] = static_cast<int>(s % static_cast<std::size_t>(g));

  for (std::size_t s = 0; s < n; ++s) {
    TokenVcMonitor::Config mc;
    mc.slot = static_cast<int>(s);
    mc.slot_to_pid = slot_to_pid;
    mc.shared = shared;
    mc.group_of_slot = group_of_slot;
    mc.leader = sim::NodeAddr::coordinator();
    mc.recovery = recovery;
    net.add_node(sim::NodeAddr::monitor(slot_to_pid[s]),
                 std::make_unique<TokenVcMonitor>(std::move(mc)));
  }

  MultiTokenLeader::Config lc;
  lc.slot_to_pid = slot_to_pid;
  lc.group_of_slot = group_of_slot;
  lc.num_groups = g;
  lc.halt_apps = opts.halt_on_detect;
  lc.shared = shared;
  lc.recovery = recovery;
  auto leader = std::make_unique<MultiTokenLeader>(std::move(lc));
  net.add_node(sim::NodeAddr::coordinator(), std::move(leader));

  app::AppDriverOptions drv;
  drv.compress_clocks = opts.compress_clocks;
  return replay(net, comp, drv, opts, *shared);
}

}  // namespace wcp::detect

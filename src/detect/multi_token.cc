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
  groups_.resize(static_cast<std::size_t>(cfg_.num_groups));
}

void MultiTokenLeader::on_start() {
  // Every slot starts red, so every group needs a token.
  cross_check_and_dispatch();
}

void MultiTokenLeader::on_packet(sim::Packet&& p) {
  if (p.kind == MsgKind::kControl) {
    if (p.payload.type() == typeid(TokenHeartbeat)) {
      const auto hb = sim::payload_cast<TokenHeartbeat>(std::move(p.payload));
      group(hb.group).lease.heartbeat(hb.incarnation, net().simulator().now());
      return;
    }
    WCP_CHECK_MSG(p.payload.type() == typeid(TokenStandDown),
                  "leader got unexpected control payload");
    const auto sd = sim::payload_cast<TokenStandDown>(std::move(p.payload));
    if (sd.incarnation == group(sd.group).lease.incarnation())
      group_done(sd.group, /*stood_down=*/true);
    return;
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
  const Group& g = group(tok.group);
  if (!g.outstanding || tok.incarnation != g.lease.incarnation()) {
    WCP_CHECK_MSG(net().has_crashes(), "stale token without recovery");
    return;
  }
  group_done(tok.group);
}

void MultiTokenLeader::group_done(int g, bool stood_down) {
  Group& grp = group(g);
  grp.stood_down |= stood_down;
  if (!grp.outstanding) return;
  grp.outstanding = false;
  if (std::none_of(groups_.begin(), groups_.end(),
                   [](const Group& x) { return x.outstanding; }))
    cross_check_and_dispatch();
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

  bool stood_down_red = false;
  for (std::size_t s = 0; s < n(); ++s) {
    if (canonical_.color[s] != Color::kRed) continue;
    // A red slot of a group that stood down can never advance: the
    // predicate is undetectable; let the run drain.
    Group& grp = group(cfg_.group_of_slot[s]);
    stood_down_red |= grp.stood_down;
    grp.outstanding |= !grp.stood_down;
  }
  bool any = false;
  for (int g = 0; g < cfg_.num_groups; ++g)
    if (group(g).outstanding) {
      any = true;
      issue(g);
    }
  WCP_CHECK_MSG(any || stood_down_red,
                "leader stuck: red slots but no dispatch");
}

void MultiTokenLeader::issue(int g) {
  // The group's token goes to its first red member; a re-issued group with
  // none left (a stale return merged them all green) is done.
  std::size_t target = 0;
  while (target < n() && (cfg_.group_of_slot[target] != g ||
                          canonical_.color[target] != Color::kRed))
    ++target;
  if (target == n()) {
    group_done(g);
    return;
  }
  VcToken copy = canonical_;
  copy.group = g;
  copy.incarnation = group(g).lease.issue(net().simulator().now());
  if (net().has_crashes()) arm_watchdog();
  const std::int64_t bits = copy.bits(/*with_v=*/true);
  send(sim::NodeAddr::monitor(cfg_.slot_to_pid[target]), MsgKind::kToken,
       std::move(copy), bits);
}

void MultiTokenLeader::arm_watchdog() {
  if (wd_armed_) return;
  wd_armed_ = true;
  after(TokenLease::kHeartbeat, [this] {
    wd_armed_ = false;
    if (cfg_.shared->detected) return;
    const SimTime now = net().simulator().now();
    bool any = false;
    for (int g = 0; g < cfg_.num_groups; ++g) {
      const Group& grp = group(g);
      if (grp.outstanding && grp.lease.expired(now)) {
        if (TokenLease::stranded(canonical_, net(), cfg_.slot_to_pid,
                                 cfg_.group_of_slot, g)) {
          group_done(g, /*stood_down=*/true);
        } else {
          // The group's token (and maybe its holder) is gone: re-issue it
          // from the canonical merged state.
          ++net().fault_counters().token_regenerations;
          issue(g);
        }
      }
      any |= grp.outstanding;
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

  sim::Network net(network_config(opts, comp));

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
    net.add_node(sim::NodeAddr::monitor(slot_to_pid[s]),
                 std::make_unique<TokenVcMonitor>(std::move(mc)));
  }

  MultiTokenLeader::Config lc;
  lc.slot_to_pid = slot_to_pid;
  lc.group_of_slot = group_of_slot;
  lc.num_groups = g;
  lc.halt_apps = opts.halt_on_detect;
  lc.shared = shared;
  auto leader = std::make_unique<MultiTokenLeader>(std::move(lc));
  net.add_node(sim::NodeAddr::coordinator(), std::move(leader));

  app::AppDriverOptions drv;
  drv.compress_clocks = opts.compress_clocks;
  return replay(net, comp, drv, opts, *shared);
}

}  // namespace wcp::detect

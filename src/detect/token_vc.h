// Single-token, vector-clock based WCP detection (§3 of the paper).
//
// One monitor process per predicate process. A unique token carries the
// candidate cut G (state index per predicate slot) and a color per slot.
// The monitor holding the token advances its own slot past eliminated
// states (candidates whose own component is <= G[slot]), accepts the first
// survivor (green), marks every slot j whose accepted candidate shows
// (j, G[j]) -> (self, G[self]) red, and forwards the token to a red slot;
// when all slots are green, G is the first cut satisfying the WCP
// (Theorem 3.2).
//
// That holder step, and VcToken, belong to TokenCore (detect/stream_core.h);
// the monitor runs the step on its snapshot inbox and hosts the rest:
// work charges, forwarding, recovery, heartbeats and the halt broadcast.
//
// Complexity (measured by the E1-E3 benches): O(n^2 m) total work and
// messages-bits, O(nm) work and space per monitor.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/snapshot.h"
#include "clock/vector_clock.h"
#include "detect/result.h"
#include "detect/stream_core.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::detect {

static_assert(sim::Payload::fits_inline<VcToken>);

// ---- recovery control payloads (MsgKind::kControl; see TokenLease) ------
// Holder -> guardian. A heartbeat says the holder of `incarnation` is alive
// and blocked on a candidate. A stand-down says stop guarding: a §3.5
// holder names the token it stands down with; a Fig. 3 holder sends it
// empty once the token moved on, was detected, or stands down, and its
// guardian drops the one checkpoint it keeps.
struct TokenHeartbeat { int group = -1; std::int64_t incarnation = 0; };
struct TokenStandDown { int group = -1; std::int64_t incarnation = 0; };

/// Observation hook fired every time the token is about to be forwarded (or
/// detection declared). Used by the property-test suite to verify the
/// Lemma 3.1 invariants online.
using VcTokenObserver =
    std::function<void(const VcToken& token, int holder_slot, bool detecting)>;

class TokenVcMonitor final : public sim::Node {
 public:
  struct Config {
    int slot = 0;                              // this monitor's index in the cut
    std::vector<ProcessId> slot_to_pid;        // predicate slot -> process id
    std::shared_ptr<SharedDetection> shared;
    VcTokenObserver observer;                  // may be empty

    // §3.5 multi-token mode: when group_of_slot is non-empty, the token is
    // routed only to red slots of this monitor's own group, and returned to
    // the leader (the coordinator node) when none remain; detection happens
    // at the leader.
    std::vector<int> group_of_slot;

    // Distributed breakpoint: on detection, freeze all application
    // processes instead of stopping the simulation.
    bool halt_apps = false;
  };

  explicit TokenVcMonitor(Config cfg);

  void on_start() override;
  void on_packet(sim::Packet&& p) override;
  void on_crash() override;
  void on_restart() override;

  [[nodiscard]] bool holding_token() const { return token_.has_value(); }
  [[nodiscard]] bool starved() const { return waiting_ && eos_; }

 private:
  void process_token();
  void route(const TokenStep& step);
  void on_token(sim::Packet&& p);
  void enter_waiting();
  void stand_down(const VcToken& tok);
  void arm_heartbeat();
  void arm_watchdog(SimTime delay);
  [[nodiscard]] bool grouped() const { return !cfg_.group_of_slot.empty(); }
  [[nodiscard]] std::size_t n() const { return cfg_.slot_to_pid.size(); }

  Config cfg_;
  bool recovering_ = false;       // the network schedules crashes (TokenLease)
  std::optional<VcToken> token_;  // volatile: lost on crash
  bool waiting_ = false;          // holding the token, blocked on a candidate

  // State a real monitor would keep on stable storage (survives on_crash):
  // the logged snapshot inbox and stream-end flag, the last accepted own
  // candidate (G and clock; restored into stale tokens by the fast-forward
  // rule in process_token), and the guardian checkpoint of the last token
  // this monitor forwarded.
  std::deque<app::VcSnapshot> inbox_;
  bool eos_ = false;              // application stream ended
  StateIndex last_G_ = 0;
  VectorClock last_V_{};
  bool has_last_ = false;
  std::optional<VcToken> checkpoint_;
  int successor_slot_ = -1;       // slot the checkpointed token went to
  TokenLease lease_;              // on the checkpointed token
  bool forwarded_ever_ = false;

  // Bookkeeping (recomputable, so volatility does not matter).
  std::optional<sim::NodeAddr> guardian_;  // sender of the token we hold
  bool wd_armed_ = false;
  bool hb_armed_ = false;
  bool stood_down_ = false;       // told the guardian of the token we hold
};

/// Installs single-token monitors (one per predicate slot; slot 0 starts
/// with the token) into an existing network. Use for live instrumented
/// applications (see app/instrument.h); the replay harness run_token_vc
/// is built on this.
std::shared_ptr<SharedDetection> install_token_vc_monitors(
    sim::Network& net, const std::vector<ProcessId>& slot_to_pid,
    const VcTokenObserver& observer = {}, bool halt_apps = false);

/// Runs the single-token algorithm online over a replay of `comp`.
DetectionResult run_token_vc(const Computation& comp, const RunOptions& opts,
                             const VcTokenObserver& observer = {});

}  // namespace wcp::detect

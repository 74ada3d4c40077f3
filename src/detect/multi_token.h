// Multi-token (g groups) WCP detection — §3.5 of the paper.
//
// The predicate slots are partitioned into g groups, each running the
// single-token algorithm restricted to its own members. When a group has no
// red member left, its token is returned to a pre-determined leader. The
// leader merges the g tokens into a canonical candidate cut, performs the
// cross-group consistency check (using the accepted candidates' vector
// clocks carried in VcToken::V — see DESIGN.md §2.3), and either declares
// detection or re-dispatches tokens into every group that still contains a
// red slot.
//
// Group members run TokenCore::step with their group as the filter; the
// leader's cross-check is TokenCore::eliminate per green slot.
//
// With g == 1 this degenerates to the single-token algorithm plus one
// leader round-trip; with g == n every slot advances independently.
#pragma once

#include <memory>
#include <vector>

#include "detect/result.h"
#include "detect/token_vc.h"
#include "trace/computation.h"

namespace wcp::detect {

struct MultiTokenOptions {
  /// Number of groups g (clamped to [1, n]). Slots are partitioned
  /// round-robin: slot s belongs to group s % g.
  int num_groups = 2;
};

class MultiTokenLeader final : public sim::Node {
 public:
  struct Config {
    std::vector<ProcessId> slot_to_pid;
    std::vector<int> group_of_slot;
    int num_groups = 1;
    bool halt_apps = false;  // distributed breakpoint on detection
    std::shared_ptr<SharedDetection> shared;
  };

  explicit MultiTokenLeader(Config cfg);

  void on_start() override;
  void on_packet(sim::Packet&& p) override;

 private:
  // Under crashes the leader guards every group token (TokenLease, scope:
  // the group), re-issuing copies of the canonical merged token. Stale
  // returns are merged (sound); only the live incarnation closes a group.
  struct Group {
    TokenLease lease;
    bool outstanding = false;  // dispatched and not yet back
    bool stood_down = false;   // undetectable; never dispatched again
  };

  void cross_check_and_dispatch();
  void issue(int g);
  void group_done(int g, bool stood_down = false);
  void arm_watchdog();
  [[nodiscard]] std::size_t n() const { return cfg_.slot_to_pid.size(); }
  [[nodiscard]] Group& group(int g) {
    return groups_.at(static_cast<std::size_t>(g));
  }

  Config cfg_;
  VcToken canonical_;
  std::vector<Group> groups_;
  bool wd_armed_ = false;
};

DetectionResult run_multi_token(const Computation& comp,
                                const RunOptions& opts,
                                const MultiTokenOptions& mt);

}  // namespace wcp::detect

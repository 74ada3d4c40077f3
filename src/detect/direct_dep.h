// Direct-dependence based WCP detection — §4 of the paper (Figs. 4 & 5) —
// plus the §4.5 parallel variant.
//
// No vector clocks: every application process numbers its states with a
// scalar counter and records one (source, clock) dependence per receive.
// All N monitor processes participate. The candidate cut is fully
// distributed: each monitor holds its own color and G. Monitors whose
// candidate is eliminated form a linked "red chain" threaded through their
// next_red pointers; the (empty) token always sits at the head of the
// chain. The token holder advances its candidate, polls the source of every
// collected dependence (inserting monitors that turn red into the chain
// right behind itself), and passes the token down the chain. An empty chain
// means every monitor is green: the G values form the first consistent cut
// satisfying the WCP (Theorems 4.3/4.4).
//
// The algorithm exists once, as DdCore: one monitor's state machine, with
// no simulator in it. Two hosts run it: DdMonitor on the simulator, serial
// or §4.5 parallel (DdRunOptions::parallel), and detect_direct_dep_offline
// (detect/offline.h), which holds N cores and answers each poll by calling
// the polled core directly.
//
// Paper-fidelity notes:
//  * Fig. 4 omits "G := candidate.clock" after acceptance; the correctness
//    lemmas require it, so we commit it (DESIGN.md §2.1).
//  * In the parallel variant a monitor keeps its color red until the token
//    actually leaves it. This is what keeps the chain unbroken ("the token
//    must visit a process before that process can be removed from the red
//    chain", §4.5): a poll can then never overwrite the next_red pointer of
//    a chain member, because Fig. 5 only overwrites next_red on a
//    green->red transition. In the serial algorithm the two orders are
//    indistinguishable (only the holder polls).
//
// Complexity (measured by E4): O(Nm) total work, messages and bits; O(m)
// work and space per process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "clock/dependence.h"
#include "detect/result.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::detect {

/// The token of §4.2 carries no data.
struct DdToken {};

/// Poll message (Fig. 4): the dependence's clock value plus the poller's
/// current next_red pointer (-1 encodes NULL). The reply (Fig. 5) is a
/// bool: whether the polled monitor turned green -> red.
struct DdPoll {
  LamportTime clock = 0;
  int next_red = -1;
};
static_assert(sim::Payload::fits_inline<DdPoll>);

/// What a DdCore asks its host to do next.
struct DdAction {
  enum Kind : std::uint8_t {
    kIdle,       // nothing until the next input
    kCandidate,  // feed the next candidate (on_candidate) when there is one
    kPoll,       // send `poll` to monitor `to`, answer with on_reply
    kHandoff,    // pass the token to monitor `to`; -1: every monitor green
  } kind = kIdle;
  int to = -1;
  DdPoll poll;
};

/// One monitor's share of §4 as a pure state machine: its color, G and
/// next_red (Table 1), the candidate under test and its dependences still
/// to poll. The Fig. 4 acceptance test, the Fig. 5 poll rule and both
/// halves of the red-chain splice live here and nowhere else; the
/// simulator monitors (install_dd_monitors) and detect_direct_dep_offline
/// (detect/offline.h) only move candidates, polls and the token between
/// cores and charge their costs.
class DdCore {
 public:
  /// Monitor `self` of N. Every monitor starts red at G = 0 on the chain
  /// 0 -> 1 -> ... -> N-1, with the token at monitor 0. `parallel` is the
  /// §4.5 mode: a red monitor consumes candidates without the token.
  DdCore(ProcessId self, std::size_t N, bool parallel);

  /// The next action from the current state, with no new input. Only the
  /// start of a run, an arriving candidate and a handled poll need it.
  [[nodiscard]] DdAction next();
  /// The token arrived; the chain guarantees this monitor is red.
  [[nodiscard]] DdAction take_token();
  /// The candidate asked for by kCandidate: its clock and the dependences
  /// recorded since the previous candidate (§4.1).
  [[nodiscard]] DdAction on_candidate(LamportTime clock,
                                      std::span<const Dependence> deps);
  /// Fig. 5: a poll turns this monitor red at G = clock unless the clock
  /// is below G. Returns whether it turned green -> red, in which case it
  /// joins the chain behind the poller (adopts the poller's next_red).
  bool on_poll(const DdPoll& poll);
  /// The answer to the outstanding poll of monitor `from`: on a green ->
  /// red turn the poller links it in as its next_red.
  [[nodiscard]] DdAction on_reply(ProcessId from, bool became_red);

  [[nodiscard]] Color color() const { return color_; }
  [[nodiscard]] LamportTime G() const { return G_; }
  [[nodiscard]] int next_red() const { return next_red_; }
  [[nodiscard]] bool holding_token() const { return has_token_; }

 private:
  ProcessId self_;
  bool parallel_;
  Color color_ = Color::kRed;
  LamportTime G_ = 0;
  int next_red_;
  bool has_token_;
  bool poll_outstanding_ = false;
  LamportTime candidate_ = 0;      // the candidate under test (0: none)
  std::vector<Dependence> polls_;  // its dependences, polled in order
  std::size_t polled_ = 0;
};

/// Fired at every token handoff (new_holder == -1 on detection) with every
/// monitor's core, valid only during the call; the sender has just turned
/// green. Both hosts call it, so the tests check the red-chain invariant
/// (Lemma 4.2.3) on each.
using DdInspector = std::function<void(const std::vector<const DdCore*>& cores,
                                       ProcessId from, int new_holder)>;

struct DdRunOptions {
  bool parallel = false;
};

/// Fills r.full_cut with every monitor's G and r.cut with its projection
/// onto the predicate processes: the detected cut, on either host.
void record_dd_cut(DetectionResult& r, const Computation& comp,
                   const std::vector<const DdCore*>& cores);

/// A set of installed direct-dependence monitors (one per process, the
/// initial red chain threaded 0 -> 1 -> ... -> N-1, token at monitor 0).
/// Core pointers stay valid while the network lives; after detection
/// their G() values form the cut.
struct DdInstallation {
  std::shared_ptr<SharedDetection> shared;
  std::vector<const DdCore*> cores;
};

/// Installs direct-dependence monitors into an existing network — the live
/// (non-replay) entry point; pair with app::Instrument in direct-dependence
/// mode on every application process.
DdInstallation install_dd_monitors(sim::Network& net, std::size_t N,
                                   const DdRunOptions& dd = {},
                                   bool halt_apps = false,
                                   const DdInspector& inspector = {});

/// Runs the direct-dependence algorithm online over a replay of `comp`.
/// All N processes participate; processes outside the predicate set run
/// with the identically-true local predicate (§4's requirement).
DetectionResult run_direct_dep(const Computation& comp, const RunOptions& opts,
                               const DdRunOptions& dd = {},
                               const DdInspector& inspector = {});

}  // namespace wcp::detect

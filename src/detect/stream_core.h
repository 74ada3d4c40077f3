// Incremental detection cores — the WCP state machines extracted from the
// simulator-hosted checkers so the streaming service (src/serve) can run
// them over wire-fed snapshot streams with frontier garbage collection.
//
// Three cores live here (the fourth, slice::SlicerCore, sits next to its
// sim host in slice/online_slicer.h):
//
//   TokenCore        — Fig. 3 of the paper run incrementally: one token
//                      walks the red slots consuming queued candidates;
//                      stalls (instead of starving) when the holder's
//                      candidate queue runs dry mid-stream. Its holder
//                      step (TokenCore::step) is the only Fig. 3 loop: the
//                      token_vc.h monitors and the multi_token.h leader
//                      run it too.
//   CentralizedCore  — Garg & Waldecker queue-head elimination plus the
//                      GCP channel step of reference [6]: the only
//                      advance-candidate loop. CentralizedChecker (WCP and
//                      run_gcp_centralized), the serve checker
//                      subscription and detect_gcp host it.
//   LatticeOnlineCore— the online host of the Cooper-Marzullo lattice walk
//                      (detect/cut_walk.h): it feeds the walk arrivals and
//                      ends of stream, and its collect() lets the walk
//                      retire visited cuts below the GC frontier.
//
// Extraction fidelity: the sim::Node hosts (CentralizedChecker,
// LatticeChecker) delegate to these cores and install CoreHooks that
// forward work/buffer accounting into the network metrics at exactly the
// old call sites, so every simulator run — verdict, cut, metrics, storage
// stats — is byte-identical to the pre-extraction implementation
// (tests/centralized_test, tests/lattice_online_test). The offline token
// run (detect/offline.h) hosts TokenCore the same way, charging work and
// token hops to the holder's monitor (tests/offline_test), and detect_gcp
// hosts CentralizedCore over ground-truth clocks (the gcp-online and
// gcp-offline records of tests/golden_report_test).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "app/state_stream.h"
#include "clock/vector_clock.h"
#include "common/cut_storage.h"
#include "common/types.h"
#include "detect/cut_walk.h"
#include "detect/gcp.h"

namespace wcp::sim {
class Network;
}  // namespace wcp::sim

namespace wcp::detect {

/// The token of Fig. 3, optionally extended with V: the accepted
/// candidate's full vector clock per slot, from which the §3.5 leader
/// cross-checks the groups and a re-examined green slot re-eliminates.
struct VcToken {
  std::vector<StateIndex> G;     // candidate cut; G[s] = 0 initially
  std::vector<Color> color;      // all red initially
  std::vector<VectorClock> V;    // accepted candidate clocks; may be empty

  // Recovery header (runs with crashes only; see TokenLease). `group` is
  // the §3.5 group this token serves (-1 in single-token mode);
  // `incarnation` is the one its guardian issued it under, so stale
  // duplicates can be told from the live one. Neither field is charged in
  // bits(): they are a constant-size extension header and the paper's O(n)
  // token-size claim is measured without it.
  int group = -1;
  std::int64_t incarnation = 0;

  /// Without V it is the paper's O(n) token, as TokenCore carries it; the
  /// simulator monitors carry V for the §3.5 leader and for recovery.
  explicit VcToken(std::size_t n, bool with_v = true)
      : G(n, 0), color(n, Color::kRed), V(with_v ? n : 0, VectorClock(n)) {}

  [[nodiscard]] std::size_t width() const { return G.size(); }

  /// Wire size: the paper's token is O(n) (G + color); V adds O(n^2) and is
  /// only carried for the multi-token variant, so it is costed separately.
  [[nodiscard]] std::int64_t bits(bool with_v) const {
    std::int64_t b = static_cast<std::int64_t>(G.size()) * 64 +
                     static_cast<std::int64_t>(color.size());
    if (with_v)
      for (const auto& vc : V) b += vc.bits();
    return b;
  }
};

/// Folds `from` into `into`, slot by slot: the higher G wins and brings its
/// color and accepted clock; at equal G a red mark wins because it records
/// an elimination proof. This is the §3.5 leader merge, also used to fold a
/// duplicate token from a guardian's false-positive regeneration into the
/// live one: the per-slot maximum of two sound tokens is sound.
void merge_token(VcToken& into, const VcToken& from);

/// Token crash recovery (runs with crashes only), one rule for the Fig. 3
/// guardian (the monitor that forwarded the token; scope: every slot) and
/// the §3.5 leader (scope: the group it dispatched to). The guardian issues
/// the token under a new incarnation and a kLease lease; a holder blocked
/// on its candidates heartbeats every kHeartbeat, which extends the live
/// incarnation's lease. An expired lease re-issues the guardian's copy
/// unless it is stranded. Only a slot's own monitor advances its G, so a
/// red slot whose monitor is down for good makes the run undetectable:
/// guardian and holder then stand down, and the run drains.
class TokenLease {
 public:
  static constexpr SimTime kLease = 240;
  static constexpr SimTime kHeartbeat = 60;

  /// Issues the token (again) at `now`; returns its new incarnation.
  std::int64_t issue(SimTime now) {
    deadline_ = now + kLease;
    return ++incarnation_;
  }
  void heartbeat(std::int64_t inc, SimTime now) {
    if (inc == incarnation_) deadline_ = now + kLease;
  }
  [[nodiscard]] bool expired(SimTime now) const { return now >= deadline_; }
  [[nodiscard]] SimTime deadline() const { return deadline_; }
  [[nodiscard]] std::int64_t incarnation() const { return incarnation_; }

  /// Some red slot of `tok` in scope (every slot when `group` < 0) has a
  /// monitor that crashed with no restart.
  [[nodiscard]] static bool stranded(const VcToken& tok,
                                     const sim::Network& net,
                                     std::span<const ProcessId> slot_to_pid,
                                     std::span<const int> group_of_slot,
                                     int group);

 private:
  std::int64_t incarnation_ = 0;
  SimTime deadline_ = 0;
};

/// How one Fig. 3 holder step ended: stalled (the holder's queue ran dry
/// while its slot is red), forward to slot `next`, or all green (no red
/// slot passes the host's filter).
struct TokenStep {
  enum Kind : std::uint8_t { kStalled, kForward, kAllGreen } kind;
  std::size_t next = 0;
};

/// Fig. 3 token algorithm over a candidate stream. Positions whose local
/// predicate is false are skipped on arrival; the token stalls whenever the
/// holder's queue is empty and the slot's stream has not ended, and starves
/// (final verdict: not detected) once it has.
class TokenCore final : public app::StreamCore {
 public:
  /// The Fig. 3 holder step: slot `s` holds `tok`; `pop()` yields its
  /// queued candidates' clocks in order, as optionals that are empty once
  /// the queue is dry. Accepts the first candidate that advances G[s],
  /// eliminates every slot it dominates and routes to the first red slot j
  /// with `eligible(j)` (the §3.5 group filter). Hosts charge the work and
  /// move the token.
  template <class Pop, class Eligible>
  static TokenStep step(VcToken& tok, std::size_t s, Pop&& pop,
                        Eligible&& eligible) {
    if (tok.color[s] == Color::kGreen) {
      // A fast-forwarded or merged token: V[s] is the live accepted
      // candidate, so re-applying its elimination is sound.
      eliminate(tok, s, tok.V.at(s));
    } else {
      // Fig. 3 while-loop: consume candidates until one advances G[s].
      while (true) {
        const auto cand = pop();
        if (!cand) return {TokenStep::kStalled};
        if ((*cand)[s] > tok.G[s]) {
          tok.G[s] = (*cand)[s];
          tok.color[s] = Color::kGreen;
          if (!tok.V.empty())
            for (std::size_t t = 0; t < tok.width(); ++t)
              tok.V[s].set(ProcessId(static_cast<int>(t)), (*cand)[t]);
          eliminate(tok, s, *cand);
          break;
        }
      }
    }
    for (std::size_t j = 0; j < tok.width(); ++j)
      if (tok.color[j] == Color::kRed && eligible(j))
        return {TokenStep::kForward, j};
    return {TokenStep::kAllGreen};
  }

  /// Fig. 3 for-loop: every slot j whose candidate happened before slot
  /// s's accepted candidate, whose clock is `c` (c[j] >= G[j]), turns red
  /// at G[j] = c[j]. Idempotent, so re-applying it is sound.
  template <class Clock>
  static void eliminate(VcToken& tok, std::size_t s, const Clock& c) {
    for (std::size_t j = 0; j < tok.width(); ++j)
      if (j != s && c[j] >= tok.G[j]) {
        tok.G[j] = c[j];
        tok.color[j] = Color::kRed;
      }
  }

  TokenCore(const app::StateStream& stream, app::CoreHooks hooks);

  void on_state(std::size_t s) override;
  void on_eos(std::size_t s) override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool detected() const override { return detected_; }
  [[nodiscard]] const std::vector<StateIndex>& cut() const override {
    return cut_;
  }
  [[nodiscard]] StateIndex frontier(std::size_t s) const override;
  [[nodiscard]] std::int64_t resident_bytes() const override;

  /// The token as the current holder left it.
  [[nodiscard]] const VcToken& token() const { return token_; }

 private:
  void pump();
  [[nodiscard]] std::size_t n() const { return queue_.size(); }

  const app::StateStream& stream_;
  app::CoreHooks hooks_;
  std::vector<std::deque<StateIndex>> queue_;  // candidate positions
  VcToken token_;
  std::size_t holder_ = 0;
  bool done_ = false;
  bool detected_ = false;
  std::vector<StateIndex> cut_;
};

/// Garg & Waldecker centralized checker over a candidate stream, and the
/// generalized conjunctive predicate (GCP) checker of reference [6]: the
/// same queue-head elimination plus one channel step. Once all n heads are
/// present and pairwise concurrent, the channel predicates are evaluated in
/// order; the first violated one pops its victim's head (the receiver for
/// empty/at-most, the sender for at-least: see detect/gcp.h) and the
/// consistency loop resumes. With no channel predicates it is the WCP
/// checker.
class CentralizedCore final : public app::StreamCore {
 public:
  /// A channel predicate over the core's slots.
  struct Channel {
    ChannelPredicate pred;
    std::size_t from, to;  // slots of pred.from and pred.to
  };
  /// Messages in transit on channel `c` at the cut position (head of slot
  /// `from` at `from_pos`, head of slot `to` at `to_pos`).
  using TransitReader = std::function<std::int64_t(
      std::size_t c, StateIndex from_pos, StateIndex to_pos)>;

  CentralizedCore(const app::StateStream& stream, app::CoreHooks hooks,
                  std::vector<Channel> channels = {},
                  TransitReader transit = {});

  void on_state(std::size_t s) override;
  void on_eos(std::size_t s) override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool detected() const override { return detected_; }
  [[nodiscard]] const std::vector<StateIndex>& cut() const override {
    return cut_;
  }
  [[nodiscard]] StateIndex frontier(std::size_t s) const override;
  [[nodiscard]] std::int64_t resident_bytes() const override;

  [[nodiscard]] std::int64_t eliminations() const { return eliminations_; }
  [[nodiscard]] std::int64_t channel_evals() const { return channel_evals_; }

 private:
  void process();
  /// Pops the victim head of the first violated channel predicate; false
  /// when every one holds on the current head cut.
  [[nodiscard]] bool channel_step();
  void pop_head(std::size_t s);
  [[nodiscard]] std::size_t n() const { return queue_.size(); }

  const app::StateStream& stream_;
  app::CoreHooks hooks_;
  std::vector<Channel> channels_;
  TransitReader transit_;
  std::vector<std::deque<StateIndex>> queue_;  // candidate positions
  std::deque<std::size_t> dirty_;  // slots whose head needs comparison
  std::vector<bool> in_dirty_;
  std::int64_t eliminations_ = 0;
  std::int64_t channel_evals_ = 0;
  bool done_ = false;
  bool detected_ = false;
  std::vector<StateIndex> cut_;
};

/// Online Cooper-Marzullo lattice exploration over an all-states stream
/// (position == state index): the lattice walk (detect/cut_walk.h) over
/// the stream's clocks, fed arrivals and ends of stream. The search is
/// exhausted once no cut is ready or parked; collect() is frontier GC over
/// the walk's visited set.
class LatticeOnlineCore final : public app::StreamCore {
 public:
  LatticeOnlineCore(const app::StateStream& stream, app::CoreHooks hooks,
                    std::int64_t max_cuts = -1);

  void on_state(std::size_t s) override;
  void on_eos(std::size_t s) override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool detected() const override { return detected_; }
  [[nodiscard]] const std::vector<StateIndex>& cut() const override {
    return cut_;
  }
  [[nodiscard]] StateIndex frontier(std::size_t s) const override;
  void collect(std::span<const StateIndex> floor) override {
    walk_.collect(floor);
  }
  [[nodiscard]] std::int64_t resident_bytes() const override {
    return walk_.resident_bytes();
  }

  /// Exploration exceeded max_cuts: the (non-)verdict is unreliable.
  [[nodiscard]] bool truncated() const { return gave_up_; }
  /// Consistent cuts reached, the one past max_cuts included.
  [[nodiscard]] std::int64_t cuts_explored() const { return walk_.visited(); }
  /// Peak of the walk's frontier() when a cut is reached.
  [[nodiscard]] std::int64_t max_frontier() const { return max_frontier_; }
  [[nodiscard]] std::int64_t cuts_retired() const {
    return walk_.cuts_retired();
  }
  [[nodiscard]] CutStorageStats storage() const { return walk_.storage(); }

 private:
  /// The walk's live clock oracle: the stream itself.
  struct StreamClocks {
    const app::StateStream& stream;
    StateIndex last(std::size_t s) const { return stream.last(s); }
    bool ended(std::size_t s) const { return stream.eos(s); }
    StateIndex clock(std::size_t s, StateIndex k, std::size_t t) const {
      return stream.clock(s, k, t);
    }
  };

  void drain();

  const app::StateStream& stream_;
  app::CoreHooks hooks_;
  std::int64_t max_cuts_ = -1;
  CutWalk<StreamClocks> walk_;
  std::int64_t work_reported_ = 0;  // walk clock reads already charged
  std::int64_t max_frontier_ = 0;
  bool gave_up_ = false;
  bool done_ = false;
  bool detected_ = false;
  std::vector<StateIndex> cut_;
};

}  // namespace wcp::detect

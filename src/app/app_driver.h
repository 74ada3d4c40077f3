// Application-process driver: replays one process's timeline of a
// Computation on the simulator, carrying the instrumentation of the paper's
// application-process algorithms (Fig. 2 for the vector-clock detectors,
// §4.1 for the direct-dependence detectors).
//
// Replay preserves the logical computation exactly — each receive waits for
// its scripted message — so the cut detected online can be compared against
// the offline oracle regardless of simulated network latency or reordering.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "clock/dependence.h"
#include "clock/vector_clock.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::app {

/// Which snapshot instrumentation the run uses.
enum class Instrumentation : std::uint8_t {
  kVectorClock,       // Fig. 2: n-wide vector clocks, snapshots to monitor
  kDirectDependence,  // §4.1: scalar clock + dependence lists
};

/// Payload of an application-to-application message.
struct AppMessage {
  MessageId id = -1;          // script identity (replay bookkeeping only)
  VectorClock vclock;         // kVectorClock: sender's clock (n components)
  LamportTime clock = 0;      // kDirectDependence: sender's scalar clock

  // Singhal-Kshemkalyani differential compression (ablation, see E11):
  // instead of the full clock, carry only the components that changed since
  // the previous message on this channel, plus a per-channel sequence
  // number used to validate the FIFO assumption the technique requires.
  bool compressed = false;
  std::int64_t chan_seq = 0;
  std::vector<std::pair<int, StateIndex>> diff;

  /// On-the-wire control information added by the instrumentation. The
  /// paper counts the piggybacked clock: n*64 bits (VC) or 64 (DD); a
  /// compressed clock is 64 (seq) + 96 per changed component.
  [[nodiscard]] std::int64_t bits() const {
    if (compressed)
      return 64 + static_cast<std::int64_t>(diff.size()) * 96;
    return vclock.empty() ? 64 : vclock.bits();
  }
};

static_assert(sim::Payload::fits_inline<AppMessage>);

struct AppDriverOptions {
  Instrumentation mode = Instrumentation::kVectorClock;
  /// Mean think time between consecutive local events of this process.
  SimTime step_delay = 1;
  /// If true (DD runs), processes outside the predicate set snapshot every
  /// state (their local predicate is identically true, §4's requirement
  /// that all N processes participate).
  bool relay_snapshots = false;
  /// Differentially compress piggybacked vector clocks (Singhal-
  /// Kshemkalyani). Requires the computation's per-channel receive order to
  /// match the send order; validated at runtime via chan_seq.
  bool compress_clocks = false;
  /// Attach per-peer send/receive counters to every snapshot (GCP runs,
  /// reference [6]): 2N extra words per snapshot.
  bool include_channel_counts = false;
  /// Emit local snapshots / end-of-stream to the monitor. Disabled for
  /// runs without monitor processes (e.g. Chandy-Lamport rounds).
  bool emit_snapshots = true;
  /// Snapshot EVERY state of predicate processes (with the predicate value
  /// flagged), not just satisfying ones — the Cooper-Marzullo online
  /// lattice checker consumes full state streams.
  bool snapshot_all_states = false;
  /// Address that receives this process's snapshots (its monitor, or the
  /// centralized checker).
  sim::NodeAddr monitor;
};

class AppDriver final : public sim::Node {
 public:
  AppDriver(const Computation& comp, ProcessId self, AppDriverOptions opts);

  void on_start() override;
  void on_packet(sim::Packet&& p) override;

  [[nodiscard]] bool done() const { return next_event_ >= script_.size(); }
  /// Frozen by a Halt control message (distributed breakpoint).
  [[nodiscard]] bool halted() const { return halted_; }
  /// The process's current local state index.
  [[nodiscard]] StateIndex current_state() const { return state_; }

 private:
  void step();
  void schedule_step();
  void enter_new_state();
  void emit_snapshot_if_needed();
  [[nodiscard]] bool in_predicate() const { return pred_slot_ >= 0; }

  const Computation& comp_;
  AppDriverOptions opts_;
  EventView script_;
  std::size_t next_event_ = 0;
  StateIndex state_ = 1;

  // Fig. 2 state (vector-clock mode). Width n; processes outside the
  // predicate set carry the clock but own no component.
  VectorClock vclock_;
  int pred_slot_ = -1;

  // §4.1 state (direct-dependence mode).
  LamportTime clock_ = 1;
  DependenceList deps_;

  // Messages that arrived before the script is ready to consume them
  // (unordered; found by id, removed by swap-pop).
  std::vector<AppMessage> pending_;
  bool step_scheduled_ = false;
  bool eos_sent_ = false;
  bool halted_ = false;

  // Clock-compression channel state (per peer process index).
  std::vector<VectorClock> last_sent_;
  std::vector<VectorClock> last_seen_;
  std::vector<std::int64_t> send_seq_;
  std::vector<std::int64_t> recv_seq_;

  // Channel counters (per peer process index; GCP runs).
  std::vector<std::int64_t> sent_to_;
  std::vector<std::int64_t> recv_from_;

  // ---- Chandy-Lamport participation (detect/chandy_lamport.h) ----------
  // Activated by ClInitiate/ClMarker control messages; always compiled in.
  void cl_on_control(ProcessId from, const sim::Packet& p);
  void cl_record(int round);
  void cl_marker_processed(ProcessId from, int round);
  void cl_after_consume(ProcessId from);
  void cl_check_complete();

  std::vector<std::int64_t> arrived_from_;   // app msgs arrived, per peer
  std::vector<std::int64_t> consumed_from_;  // app msgs consumed, per peer
  struct ClState {
    int round = 0;
    bool recorded = false;
    StateIndex state = 0;
    bool pred = false;
    int missing = 0;
    std::vector<std::int64_t> channel_counts;   // per peer
    std::vector<bool> marker_done;              // per peer
    std::vector<std::int64_t> deferred_barrier; // per peer; -1 = none
    std::vector<int> deferred_round;            // per peer; 0 = none
  };
  ClState cl_;
};

/// Installs one AppDriver per process of `comp` into `net`. `base` supplies
/// mode/pacing/compression; the per-process monitor address is chosen by
/// `monitor_of` (defaults to NodeAddr::monitor(p)). The returned pointers
/// stay valid while `net` lives (used to read frozen states after a
/// halt-on-detect run).
std::vector<AppDriver*> install_app_drivers(
    sim::Network& net, const Computation& comp, AppDriverOptions base,
    const std::function<sim::NodeAddr(ProcessId)>& monitor_of = {});

}  // namespace wcp::app

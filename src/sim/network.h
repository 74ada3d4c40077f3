// Simulated asynchronous message-passing network (the §2 system model).
//
// Channels are point-to-point with per-message random latency. The paper's
// model does NOT assume FIFO application channels, but DOES require FIFO
// delivery from an application process to its monitor (§3.1); the network
// enforces exactly that by default. `fifo_all` can widen FIFO to every
// channel, and tests run both settings to show the detectors only need the
// mandated guarantee.
//
// Cost accounting (messages, bits, per-process work, buffered bytes) is
// recorded here so every detector's complexity is measured uniformly.
//
// The Network is the Simulator's EventHost. A packet in flight and a node
// timer ({who, fn}) wait in slabs; the queued event record carries only the
// slot. Packets carry a sim::Payload, whose inline buffer holds every hot
// message type, so a simulated message costs no allocation of its own.
// Per-node state (nodes, crash flags, restart times, FIFO high-water marks)
// lives in dense tables indexed by NodeAddr::index(N); an address outside
// them (pid >= N) is rejected by add_node and send.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/address.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "sim/payload.h"
#include "sim/reliable.h"
#include "sim/simulator.h"

namespace wcp::sim {

class Network;

/// A delivered message.
struct Packet {
  NodeAddr from;
  NodeAddr to;
  MsgKind kind = MsgKind::kApplication;
  std::int64_t bits = 0;
  Payload payload;
};

/// Base class for simulated processes (application drivers, monitors,
/// coordinators). Nodes are owned by the Network and react to packets.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once when the simulation starts.
  virtual void on_start() {}

  /// Called for every delivered packet.
  virtual void on_packet(Packet&& p) = 0;

  /// Fault-injection hooks (FaultPlan crash schedule). on_crash must discard
  /// the node's volatile state; state a real process would keep on stable
  /// storage (e.g. a logged snapshot inbox) may survive. Timers scheduled
  /// via after() are deferred across the outage, not lost.
  virtual void on_crash() {}
  virtual void on_restart() {}

 protected:
  [[nodiscard]] Network& net() const;
  [[nodiscard]] NodeAddr addr() const { return addr_; }
  [[nodiscard]] ProcessId pid() const { return addr_.pid; }

  /// Send a message; latency and metrics handled by the network.
  void send(NodeAddr to, MsgKind kind, Payload&& payload, std::int64_t bits);

  /// Schedule a local timer callback.
  void after(SimTime delay, std::function<void()> fn);

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeAddr addr_{};
};

struct NetworkConfig {
  std::size_t num_processes = 1;       ///< N
  LatencyModel latency{};              ///< applied to every message
  /// Optional separate latency for monitor-layer traffic (token, polls,
  /// leader round-trips). Lets experiments model a detection overlay that
  /// is slower/faster than the application interconnect (used by E6/E7).
  std::optional<LatencyModel> monitor_latency;
  bool fifo_all = false;               ///< FIFO on all channels, not just app->monitor
  std::uint64_t seed = 1;              ///< drives latency sampling only

  /// Fault injection (loss, duplication, bursts, partitions, crashes).
  /// Disabled by default; sampling uses its own Rng (faults.seed).
  FaultPlan faults;
  /// Reliable-transport tuning.
  ReliableConfig reliable;
  /// Run every channel over the ack/retransmit transport. Detection runners
  /// set this whenever faults are enabled: under loss or duplication, raw
  /// channels break both the replay and the snapshot streams.
  bool reliable_all = false;
  /// Event budget of start_and_run (<0: none; see detect::network_config).
  std::int64_t max_events = -1;
};

class Network final : private EventHost {
 public:
  explicit Network(NetworkConfig cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] std::size_t num_processes() const { return cfg_.num_processes; }

  /// Register a node; must happen before start(). Throws
  /// std::invalid_argument for an application or monitor pid outside
  /// [0, N), or a coordinator other than NodeAddr::coordinator().
  void add_node(NodeAddr addr, std::unique_ptr<Node> node);

  [[nodiscard]] Node* node(NodeAddr addr);

  /// Calls on_start on every node, then runs the event loop to completion
  /// (or until a node calls simulator().stop(), or max_events have run).
  void start_and_run();

  /// The event budget ended the run with events still pending.
  [[nodiscard]] bool truncated() const {
    return !sim_.stopped() && !sim_.idle();
  }

  void send(NodeAddr from, NodeAddr to, MsgKind kind, Payload&& payload,
            std::int64_t bits);

  // ---- accounting ---------------------------------------------------------
  /// Execution statistics of the run so far: event-loop totals, scheduler
  /// pressure, delivered packets per kind, and host wall-clock spent inside
  /// start_and_run (the one nondeterministic field).
  [[nodiscard]] RunStats run_stats() const;

  [[nodiscard]] Metrics& app_metrics() { return app_metrics_; }
  [[nodiscard]] Metrics& monitor_metrics() { return monitor_metrics_; }
  [[nodiscard]] const Metrics& app_metrics() const { return app_metrics_; }
  [[nodiscard]] const Metrics& monitor_metrics() const { return monitor_metrics_; }

  /// Abstract work units, attributed to monitor-layer processes.
  void add_monitor_work(ProcessId p, std::int64_t units) {
    monitor_metrics_.add_work(p, units);
  }
  void monitor_buffer_change(ProcessId p, std::int64_t delta_bytes,
                             std::int64_t delta_count) {
    monitor_metrics_.buffer_change(p, delta_bytes, delta_count);
  }
  void bump_token_hops() { monitor_metrics_.bump_token_hops(); }

  [[nodiscard]] Rng& rng() { return rng_; }

  // ---- fault injection -----------------------------------------------------
  [[nodiscard]] FaultCounters& fault_counters() { return fault_counters_; }
  [[nodiscard]] const FaultCounters& fault_counters() const {
    return fault_counters_;
  }
  /// Crashes are scheduled, so token recovery runs (detect::TokenLease).
  [[nodiscard]] bool has_crashes() const { return cfg_.faults.has_crashes(); }
  /// True while `a` is inside a scheduled crash window.
  [[nodiscard]] bool is_down(NodeAddr a) const {
    const std::size_t i = index_of(a);
    return i != kNoIndex && down_[i];
  }
  /// True once `a` has crashed with no restart scheduled. Recovery logic
  /// (transport retransmission, token regeneration) gives up on such nodes
  /// so the simulation can drain.
  [[nodiscard]] bool is_down_forever(NodeAddr a) const {
    return is_down(a) && restart_at_[index_of(a)] < 0;
  }
  /// Raw transmissions attempted so far (including retransmits and acks);
  /// the index space FaultPlan::drop_exact addresses.
  [[nodiscard]] std::int64_t raw_sends() const { return raw_sends_; }

  /// Schedule `fn` as a local timer of node `who`: if `who` is down when the
  /// timer fires, it is deferred until just after the restart.
  void node_after(NodeAddr who, SimTime delay, std::function<void()> fn);

 private:
  friend class ReliableTransport;

  struct Timer {
    NodeAddr who;
    std::function<void()> fn;
  };
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  /// Dense-table index of `a`, or kNoIndex if no node can live there.
  [[nodiscard]] std::size_t index_of(NodeAddr a) const;
  void fire(EventKind kind, std::uint32_t slot) override;
  void fire_timer(std::uint32_t slot);

  [[nodiscard]] bool is_fifo(NodeAddr from, NodeAddr to) const;

  /// Physical-layer send: accounts metrics, applies the fault plan (drop /
  /// duplicate), samples latency, and schedules delivery. Reliable-channel
  /// frames and raw messages both go through here.
  void raw_send(NodeAddr from, NodeAddr to, MsgKind kind, Payload&& payload,
                std::int64_t bits);
  /// Delivers one packet to its node (transport frames detour through
  /// ReliableTransport first). Drops it if the destination is down.
  void deliver(Packet&& p);
  /// In-order logical delivery: bumps packet counters, calls on_packet.
  void deliver_to_node(Packet&& p);
  [[nodiscard]] bool fault_dropped(NodeAddr from, NodeAddr to);

  NetworkConfig cfg_;
  Simulator sim_;
  Rng rng_;
  Rng fault_rng_;
  // Dense tables, indexed by NodeAddr::index(N); 2N + 1 entries.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::uint8_t> down_;       // inside a crash window
  std::vector<SimTime> restart_at_;      // last planned restart; -1 = none
  // Last delivery time per FIFO channel, indexed from * (2N + 1) + to;
  // sized on the first clamped send.
  std::vector<SimTime> fifo_last_;
  Slab<Packet> packets_;  // in flight
  Slab<Timer> timers_;    // pending node timers
  Metrics app_metrics_;
  Metrics monitor_metrics_;
  FaultCounters fault_counters_;
  std::unique_ptr<ReliableTransport> transport_;  // set iff reliable_all
  std::unordered_set<std::int64_t> drop_exact_;
  std::int64_t raw_sends_ = 0;
  bool crashes_scheduled_ = false;
  std::int64_t packets_delivered_[kNumMsgKinds] = {};
  double wall_ms_ = 0.0;  // host time spent inside start_and_run
};

}  // namespace wcp::sim

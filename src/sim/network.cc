#include "sim/network.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.h"

namespace wcp::sim {

Network& Node::net() const {
  WCP_CHECK(net_ != nullptr);
  return *net_;
}

void Node::send(NodeAddr to, MsgKind kind, Payload&& payload,
                std::int64_t bits) {
  net().send(addr_, to, kind, std::move(payload), bits);
}

void Node::after(SimTime delay, std::function<void()> fn) {
  net().node_after(addr_, delay, std::move(fn));
}

Network::Network(NetworkConfig cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      fault_rng_(cfg.faults.seed),
      app_metrics_(cfg.num_processes),
      // one extra monitor-layer slot for a coordinator node
      monitor_metrics_(cfg.num_processes + 1) {
  WCP_REQUIRE(cfg.num_processes >= 1, "network needs at least one process");
  const std::size_t table = 2 * cfg_.num_processes + 1;
  nodes_.resize(table);
  down_.assign(table, 0);
  restart_at_.assign(table, -1);
  sim_.set_host(this);
  drop_exact_.insert(cfg_.faults.drop_exact.begin(),
                     cfg_.faults.drop_exact.end());
  if (cfg_.reliable_all)
    transport_ = std::make_unique<ReliableTransport>(*this, cfg_.reliable);
}

Network::~Network() = default;

std::size_t Network::index_of(NodeAddr a) const {
  if (a.role == NodeRole::kCoordinator)
    return a == NodeAddr::coordinator() ? a.index(cfg_.num_processes)
                                        : kNoIndex;
  if (a.pid.value() < 0 || a.pid.idx() >= cfg_.num_processes) return kNoIndex;
  return a.index(cfg_.num_processes);
}

void Network::add_node(NodeAddr addr, std::unique_ptr<Node> node) {
  WCP_REQUIRE(node != nullptr, "null node");
  const std::size_t i = index_of(addr);
  WCP_REQUIRE(i != kNoIndex, "node address " << addr << " (pid "
                                             << addr.pid.value()
                                             << ") outside a network of "
                                             << cfg_.num_processes
                                             << " processes");
  WCP_REQUIRE(nodes_[i] == nullptr, "duplicate node at " << addr);
  node->net_ = this;
  node->addr_ = addr;
  nodes_[i] = std::move(node);
}

Node* Network::node(NodeAddr addr) {
  const std::size_t i = index_of(addr);
  return i == kNoIndex ? nullptr : nodes_[i].get();
}

void Network::start_and_run() {
  const auto wall_start = std::chrono::steady_clock::now();
  if (!crashes_scheduled_) {
    crashes_scheduled_ = true;
    for (const CrashEvent& ev : cfg_.faults.crashes) {
      // A plan may name roles this detector variant does not instantiate
      // (e.g. a coordinator crash against the single-token runner).
      Node* const target = node(ev.node);
      if (target == nullptr) continue;
      const std::size_t i = index_of(ev.node);
      if (ev.restart >= 0) restart_at_[i] = ev.restart;
      sim_.schedule_at(ev.at, [this, i, target] {
        if (down_[i]) return;  // overlapping windows
        down_[i] = 1;
        ++fault_counters_.crashes;
        target->on_crash();
      });
      if (ev.restart >= 0) {
        sim_.schedule_at(ev.restart, [this, i, target] {
          if (!down_[i]) return;
          down_[i] = 0;
          ++fault_counters_.restarts;
          target->on_restart();
        });
      }
    }
  }
  // Deterministic start order: the dense index order is address order
  // (applications, then monitors, each by pid, then the coordinator).
  for (const auto& n : nodes_)
    if (n != nullptr) n->on_start();
  sim_.run(cfg_.max_events);
  wall_ms_ += std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
}

RunStats Network::run_stats() const {
  RunStats s;
  s.events_processed = sim_.events_processed();
  s.peak_queue_depth = sim_.peak_queue_depth();
  for (std::size_t k = 0; k < kNumMsgKinds; ++k)
    s.packets_delivered[k] = packets_delivered_[k];
  s.wall_ms = wall_ms_;
  return s;
}

bool Network::is_fifo(NodeAddr from, NodeAddr to) const {
  if (cfg_.fifo_all) return true;
  // §3.1: application -> its own monitor must be FIFO.
  return from.role == NodeRole::kApplication &&
         (to.role == NodeRole::kMonitor || to.role == NodeRole::kCoordinator);
}

void Network::node_after(NodeAddr who, SimTime delay, std::function<void()> fn) {
  sim_.schedule_event(sim_.now() + delay, EventKind::kTimer,
                      timers_.put(Timer{who, std::move(fn)}));
}

void Network::fire(EventKind kind, std::uint32_t slot) {
  if (kind == EventKind::kTimer) {
    fire_timer(slot);
    return;
  }
  deliver(std::move(packets_[slot]));
  packets_.release(slot);
}

void Network::fire_timer(std::uint32_t slot) {
  const NodeAddr who = timers_[slot].who;
  if (is_down(who)) {
    const SimTime restart = restart_at_[index_of(who)];
    if (restart < 0) {  // crashed for good: timer dies
      timers_.release(slot);
      return;
    }
    // Re-queue at the restart instant; the restart event carries an older
    // sequence number, so on_restart runs before any deferred timer.
    sim_.schedule_event(std::max(restart, sim_.now()), EventKind::kTimer, slot);
    return;
  }
  timers_[slot].fn();
  timers_.release(slot);
}

void Network::send(NodeAddr from, NodeAddr to, MsgKind kind, Payload&& payload,
                   std::int64_t bits) {
  WCP_REQUIRE(index_of(from) != kNoIndex, "send from outside the network: " << from);
  WCP_REQUIRE(node(to) != nullptr, "send to unknown node " << to);
  if (transport_) {
    transport_->send(from, to, kind, std::move(payload), bits);
    return;
  }
  raw_send(from, to, kind, std::move(payload), bits);
}

bool Network::fault_dropped(NodeAddr from, NodeAddr to) {
  const FaultPlan& f = cfg_.faults;
  const SimTime now = sim_.now();
  for (const PartitionWindow& p : f.partitions) {
    if (now < p.start || now >= p.end) continue;
    if (from.role == NodeRole::kCoordinator || to.role == NodeRole::kCoordinator)
      continue;
    const int fp = from.pid.value();
    const int tp = to.pid.value();
    if ((fp == p.a && tp == p.b) || (fp == p.b && tp == p.a)) {
      ++fault_counters_.drops_partition;
      return true;
    }
  }
  for (const BurstLoss& b : f.bursts) {
    if (now >= b.start && now < b.start + b.length) {
      ++fault_counters_.drops_burst;
      return true;
    }
  }
  if (f.drop > 0 && fault_rng_.bernoulli(f.drop)) {
    ++fault_counters_.drops_random;
    return true;
  }
  return false;
}

void Network::raw_send(NodeAddr from, NodeAddr to, MsgKind kind,
                       Payload&& payload, std::int64_t bits) {
  WCP_REQUIRE(node(to) != nullptr, "send to unknown node " << to);

  // Account every physical transmission against the proper layer, so that
  // retransmits and acks show up as real overhead in the measured costs.
  if (from.role == NodeRole::kApplication) {
    app_metrics_.record_send(from.pid, kind, bits);
  } else {
    const ProcessId slot = from.role == NodeRole::kCoordinator
                               ? ProcessId(static_cast<int>(cfg_.num_processes))
                               : from.pid;
    monitor_metrics_.record_send(slot, kind, bits);
  }

  const std::int64_t idx = raw_sends_++;
  const FaultPlan& f = cfg_.faults;
  if (!drop_exact_.empty() && drop_exact_.contains(idx)) {
    ++fault_counters_.drops_random;
    return;
  }
  if (f.enabled() && fault_dropped(from, to)) return;
  const bool duplicate = f.dup > 0 && fault_rng_.bernoulli(f.dup);
  if (duplicate) ++fault_counters_.dups;

  const LatencyModel& model =
      (from.role != NodeRole::kApplication && cfg_.monitor_latency)
          ? *cfg_.monitor_latency
          : cfg_.latency;
  // Raw FIFO clamping is skipped on reliable channels: the transport's
  // resequencing buffer restores order end-to-end, and clamping could not
  // survive a dropped frame anyway.
  const bool clamp = !transport_ && is_fifo(from, to);
  const int copies = duplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    SimTime deliver_at = sim_.now() + model.sample(rng_);
    if (clamp) {
      const std::size_t span = nodes_.size();
      if (fifo_last_.empty()) fifo_last_.assign(span * span, 0);
      SimTime& last = fifo_last_[index_of(from) * span + index_of(to)];
      deliver_at = std::max(deliver_at, last + 1);
      last = deliver_at;
    }
    const std::uint32_t slot = packets_.acquire();
    Packet& p = packets_[slot];
    p.from = from;
    p.to = to;
    p.kind = kind;
    p.bits = bits;
    if (c + 1 < copies)
      p.payload = payload;
    else
      p.payload = std::move(payload);
    sim_.schedule_event(deliver_at, EventKind::kDelivery, slot);
  }
}

void Network::deliver(Packet&& p) {
  if (is_down(p.to)) {
    ++fault_counters_.drops_crash;
    return;
  }
  if (transport_ && payload_cast<ReliableFrame>(&p.payload) != nullptr) {
    transport_->on_frame(std::move(p));
    return;
  }
  deliver_to_node(std::move(p));
}

void Network::deliver_to_node(Packet&& p) {
  ++packets_delivered_[static_cast<std::size_t>(p.kind)];
  nodes_[index_of(p.to)]->on_packet(std::move(p));
}

}  // namespace wcp::sim

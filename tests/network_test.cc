#include "sim/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace wcp::sim {
namespace {

// A node that records everything it receives.
class Recorder final : public Node {
 public:
  void on_packet(Packet&& p) override {
    received.push_back({p.from, net().simulator().now(),
                        sim::payload_cast<int>(p.payload)});
  }
  struct Rx {
    NodeAddr from;
    SimTime at;
    int value;
  };
  std::vector<Rx> received;
};

// A node that sends a burst of messages at start.
class Burster final : public Node {
 public:
  Burster(NodeAddr to, int count) : to_(to), count_(count) {}
  void on_start() override {
    for (int i = 0; i < count_; ++i)
      send(to_, MsgKind::kApplication, i, /*bits=*/64);
  }
  void on_packet(Packet&&) override { FAIL() << "unexpected packet"; }

 private:
  NodeAddr to_;
  int count_;
};

NetworkConfig config(std::size_t n, LatencyModel lat, bool fifo_all,
                     std::uint64_t seed = 1) {
  NetworkConfig cfg;
  cfg.num_processes = n;
  cfg.latency = lat;
  cfg.fifo_all = fifo_all;
  cfg.seed = seed;
  return cfg;
}

TEST(Network, DeliversMessagesWithLatency) {
  Network net(config(2, LatencyModel::fixed_delay(3), false));
  auto rec = std::make_unique<Recorder>();
  auto* rec_ptr = rec.get();
  net.add_node(NodeAddr::app(ProcessId(1)), std::move(rec));
  net.add_node(NodeAddr::app(ProcessId(0)),
               std::make_unique<Burster>(NodeAddr::app(ProcessId(1)), 1));
  net.start_and_run();
  ASSERT_EQ(rec_ptr->received.size(), 1u);
  EXPECT_EQ(rec_ptr->received[0].at, 3);
  EXPECT_EQ(rec_ptr->received[0].value, 0);
}

TEST(Network, AppToMonitorIsAlwaysFifo) {
  // With high-variance latency, messages to a monitor must still arrive in
  // send order.
  Network net(config(2, LatencyModel::uniform(1, 50), /*fifo_all=*/false, 7));
  auto rec = std::make_unique<Recorder>();
  auto* rec_ptr = rec.get();
  net.add_node(NodeAddr::monitor(ProcessId(0)), std::move(rec));
  net.add_node(NodeAddr::app(ProcessId(0)),
               std::make_unique<Burster>(NodeAddr::monitor(ProcessId(0)), 30));
  net.start_and_run();
  ASSERT_EQ(rec_ptr->received.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(rec_ptr->received[i].value, i);
}

TEST(Network, MonitorToMonitorNotFifoByDefault) {
  // Deliberately racy channel: with uniform latency and many messages, some
  // reordering should appear on a non-FIFO monitor->monitor channel.
  Network net(config(2, LatencyModel::uniform(1, 50), /*fifo_all=*/false, 3));
  auto rec = std::make_unique<Recorder>();
  auto* rec_ptr = rec.get();
  net.add_node(NodeAddr::monitor(ProcessId(1)), std::move(rec));

  class MonBurster final : public Node {
   public:
    void on_start() override {
      for (int i = 0; i < 40; ++i)
        send(NodeAddr::monitor(ProcessId(1)), MsgKind::kPoll, i, 64);
    }
    void on_packet(Packet&&) override {}
  };
  net.add_node(NodeAddr::monitor(ProcessId(0)), std::make_unique<MonBurster>());
  net.start_and_run();
  ASSERT_EQ(rec_ptr->received.size(), 40u);
  bool reordered = false;
  for (std::size_t i = 1; i < rec_ptr->received.size(); ++i)
    if (rec_ptr->received[i].value < rec_ptr->received[i - 1].value)
      reordered = true;
  EXPECT_TRUE(reordered);
}

TEST(Network, FifoAllForcesOrderEverywhere) {
  Network net(config(2, LatencyModel::uniform(1, 50), /*fifo_all=*/true, 3));
  auto rec = std::make_unique<Recorder>();
  auto* rec_ptr = rec.get();
  net.add_node(NodeAddr::monitor(ProcessId(1)), std::move(rec));

  class MonBurster final : public Node {
   public:
    void on_start() override {
      for (int i = 0; i < 40; ++i)
        send(NodeAddr::monitor(ProcessId(1)), MsgKind::kPoll, i, 64);
    }
    void on_packet(Packet&&) override {}
  };
  net.add_node(NodeAddr::monitor(ProcessId(0)), std::make_unique<MonBurster>());
  net.start_and_run();
  for (std::size_t i = 1; i < rec_ptr->received.size(); ++i)
    EXPECT_GT(rec_ptr->received[i].value, rec_ptr->received[i - 1].value);
}

TEST(Network, MetricsAttributeSendsByLayer) {
  Network net(config(2, LatencyModel::fixed_delay(1), false));
  net.add_node(NodeAddr::monitor(ProcessId(0)), std::make_unique<Recorder>());
  net.add_node(NodeAddr::app(ProcessId(0)),
               std::make_unique<Burster>(NodeAddr::monitor(ProcessId(0)), 5));
  net.start_and_run();
  EXPECT_EQ(net.app_metrics().total_messages(), 5);
  EXPECT_EQ(net.app_metrics().total_bits(), 5 * 64);
  EXPECT_EQ(net.monitor_metrics().total_messages(), 0);
}

TEST(Network, SendToUnknownNodeThrows) {
  Network net(config(2, LatencyModel::fixed_delay(1), false));
  net.add_node(NodeAddr::app(ProcessId(0)),
               std::make_unique<Burster>(NodeAddr::app(ProcessId(1)), 1));
  EXPECT_THROW(net.start_and_run(), std::invalid_argument);
}

TEST(Network, DuplicateNodeRejected) {
  Network net(config(1, LatencyModel::fixed_delay(1), false));
  net.add_node(NodeAddr::app(ProcessId(0)), std::make_unique<Recorder>());
  EXPECT_THROW(
      net.add_node(NodeAddr::app(ProcessId(0)), std::make_unique<Recorder>()),
      std::invalid_argument);
}

// Per-node state lives in dense tables of 2N + 1 entries: an address that
// would alias another slot (pid >= N, a negative pid, a second coordinator)
// must be refused, not folded onto a live node.
TEST(Network, AddressOutsideTheDenseTableRejected) {
  Network net(config(2, LatencyModel::fixed_delay(1), false));
  const NodeAddr outside[] = {NodeAddr::app(ProcessId(2)),
                              NodeAddr::monitor(ProcessId(7)),
                              NodeAddr::app(ProcessId(-1)),
                              NodeAddr{NodeRole::kCoordinator, ProcessId(1)}};
  for (const NodeAddr& a : outside) {
    try {
      net.add_node(a, std::make_unique<Recorder>());
      ADD_FAILURE() << "add_node accepted " << a;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("outside a network of 2 processes"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(net.node(a), nullptr);
  }
  // app(2) would alias monitor(0) in the dense index; a send to it must
  // not reach the monitor registered there.
  net.add_node(NodeAddr::monitor(ProcessId(0)), std::make_unique<Recorder>());
  try {
    net.send(NodeAddr::app(ProcessId(0)), NodeAddr::app(ProcessId(2)),
             MsgKind::kApplication, 1, 64);
    ADD_FAILURE() << "send to app(2) accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("send to unknown node"),
              std::string::npos)
        << e.what();
  }
}

TEST(Network, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Network net(config(2, LatencyModel::exponential(6.0), false, 99));
    auto rec = std::make_unique<Recorder>();
    auto* rec_ptr = rec.get();
    net.add_node(NodeAddr::monitor(ProcessId(0)), std::move(rec));
    net.add_node(NodeAddr::app(ProcessId(0)),
                 std::make_unique<Burster>(NodeAddr::monitor(ProcessId(0)), 20));
    net.start_and_run();
    std::vector<SimTime> times;
    for (const auto& rx : rec_ptr->received) times.push_back(rx.at);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(LatencyModel, SamplesAreAtLeastOne) {
  Rng rng(5);
  const auto models = {LatencyModel::fixed_delay(0),
                       LatencyModel::uniform(1, 4),
                       LatencyModel::exponential(0.3)};
  for (const auto& m : models)
    for (int i = 0; i < 200; ++i) EXPECT_GE(m.sample(rng), 1);
}

TEST(NodeAddr, IndexingIsDense) {
  const std::size_t N = 4;
  EXPECT_EQ(NodeAddr::app(ProcessId(2)).index(N), 2u);
  EXPECT_EQ(NodeAddr::monitor(ProcessId(2)).index(N), 6u);
  EXPECT_EQ(NodeAddr::coordinator().index(N), 8u);
}

}  // namespace
}  // namespace wcp::sim

// Transport-alone tests for the ack/retransmission layer (sim/reliable.h):
// exactly-once in-order delivery over lossy/duplicating channels, FIFO
// resequencing without the network-level FIFO clamp, the exponential
// backoff cap, and deterministic replay. The detection algorithms sit on
// top of these guarantees (§2 assumes reliable channels; §3.1 FIFO
// app->monitor), so this layer is tested in isolation with plain
// sender/receiver nodes before any detector runs over it.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/json.h"
#include "sim/network.h"

namespace wcp::sim {
namespace {

/// Sends `count` numbered kApplication messages to `to`, paced `gap` apart.
class Sender final : public Node {
 public:
  Sender(NodeAddr to, int count, SimTime gap)
      : to_(to), count_(count), gap_(gap) {}

  void on_start() override { step(); }
  void on_packet(Packet&&) override {}

 private:
  void step() {
    if (sent_ == count_) return;
    send(to_, MsgKind::kApplication, ++sent_, /*bits=*/64);
    after(gap_, [this] { step(); });
  }

  NodeAddr to_;
  int count_;
  SimTime gap_;
  int sent_ = 0;
};

/// Records every delivered payload in arrival order.
class Receiver final : public Node {
 public:
  explicit Receiver(std::vector<int>* sink) : sink_(sink) {}
  void on_packet(Packet&& p) override {
    sink_->push_back(sim::payload_cast<int>(p.payload));
  }

 private:
  std::vector<int>* sink_;
};

struct RunOutcome {
  std::vector<int> received;
  FaultCounters faults;
  SimTime end_time = 0;
};

RunOutcome run_channel(const FaultPlan& plan, int count,
                       LatencyModel latency = LatencyModel::fixed_delay(1),
                       ReliableConfig rc = {}) {
  NetworkConfig cfg;
  cfg.num_processes = 2;
  cfg.latency = latency;
  cfg.seed = 17;
  cfg.faults = plan;
  cfg.reliable = rc;
  cfg.reliable_all = true;
  // A transport that stops delivering would retransmit forever; the budget
  // turns that into a failure. The largest run here takes 785 events.
  cfg.max_events = 100'000;

  Network net(std::move(cfg));
  RunOutcome out;
  net.add_node(NodeAddr::app(ProcessId(0)),
               std::make_unique<Sender>(NodeAddr::app(ProcessId(1)), count,
                                        /*gap=*/3));
  net.add_node(NodeAddr::app(ProcessId(1)),
               std::make_unique<Receiver>(&out.received));
  net.start_and_run();
  EXPECT_FALSE(net.truncated()) << "event budget exhausted";
  out.faults = net.fault_counters();
  out.end_time = net.simulator().now();
  return out;
}

std::vector<int> iota_vec(int count) {
  std::vector<int> v;
  for (int i = 1; i <= count; ++i) v.push_back(i);
  return v;
}

std::string counters_json(const FaultCounters& fc) {
  std::ostringstream oss;
  json::Writer w(oss, 0);
  fc.write_json(w);
  return oss.str();
}

TEST(ReliableChannel, ExactlyOnceInOrderUnderHeavyLossAndDuplication) {
  FaultPlan plan;
  plan.drop = 0.3;
  plan.dup = 0.2;
  plan.seed = 5;
  const auto out = run_channel(plan, /*count=*/60);

  // Despite 30% loss and 20% duplication on the wire, the application sees
  // each message exactly once, in send order.
  EXPECT_EQ(out.received, iota_vec(60));
  EXPECT_GT(out.faults.drops_random, 0);
  EXPECT_GT(out.faults.dups, 0);
  EXPECT_GT(out.faults.retransmits, 0);
  EXPECT_GT(out.faults.acks, 0);
  // Duplicates and retransmit races must have been suppressed on receive.
  EXPECT_GT(out.faults.dup_suppressed, 0);
}

TEST(ReliableChannel, ResequencesOutOfOrderArrivalsWithoutFifoClamp) {
  // Wildly variable latency and NO network FIFO clamp on reliable channels:
  // frames arrive out of order and the transport's resequencing buffer must
  // restore send order.
  FaultPlan plan;
  plan.drop = 0.05;  // enabled() => channels go reliable, loss stays light
  plan.seed = 9;
  const auto out =
      run_channel(plan, /*count=*/80, LatencyModel::uniform(1, 40));

  EXPECT_EQ(out.received, iota_vec(80));
  EXPECT_GT(out.faults.resequenced, 0);
}

TEST(ReliableChannel, BackoffIsCappedNotUnbounded) {
  // Drop the first 10 transmissions of a single message via exact-index
  // drops. With rto_initial=2 and rto_cap=16 the retransmit schedule is
  // 2, 4, 8, 16, 16, ... — the 11th transmission goes out at t=126. An
  // uncapped doubling schedule would not deliver until past t=2000.
  FaultPlan plan;
  for (std::int64_t i = 0; i < 10; ++i) plan.drop_exact.push_back(i);
  ReliableConfig rc;
  rc.rto_initial = 2;
  rc.rto_cap = 16;
  const auto out =
      run_channel(plan, /*count=*/1, LatencyModel::fixed_delay(1), rc);

  EXPECT_EQ(out.received, iota_vec(1));
  EXPECT_EQ(out.faults.retransmits, 10);
  EXPECT_EQ(out.faults.drops_random, 10);  // exact drops count as random
  EXPECT_GE(out.end_time, 126);            // sum of the capped backoffs
  EXPECT_LT(out.end_time, 200);            // far below the uncapped schedule
}

TEST(ReliableChannel, SameSeedReplaysBitIdentically) {
  FaultPlan plan;
  plan.drop = 0.25;
  plan.dup = 0.1;
  plan.seed = 31;
  const auto a = run_channel(plan, /*count=*/50, LatencyModel::uniform(1, 10));
  const auto b = run_channel(plan, /*count=*/50, LatencyModel::uniform(1, 10));

  // The fault Rng is seeded from the plan alone, so the whole loss /
  // duplication / retransmission history replays exactly.
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(counters_json(a.faults), counters_json(b.faults));

  // A different fault seed perturbs the history (same latency seed).
  plan.seed = 32;
  const auto c = run_channel(plan, /*count=*/50, LatencyModel::uniform(1, 10));
  EXPECT_NE(counters_json(a.faults), counters_json(c.faults));
}

TEST(ReliableChannel, FaultFreePlanAddsNoTransportTraffic) {
  // reliable_all with a zero-fault plan: the transport still frames and
  // acks, but nothing is dropped, duplicated, or retransmitted.
  FaultPlan plan;  // disabled
  const auto out = run_channel(plan, /*count=*/20);
  EXPECT_EQ(out.received, iota_vec(20));
  EXPECT_EQ(out.faults.total_drops(), 0);
  EXPECT_EQ(out.faults.retransmits, 0);
  EXPECT_EQ(out.faults.dup_suppressed, 0);
  EXPECT_EQ(out.faults.acks, 20);  // one cumulative ack per arrival
}

}  // namespace
}  // namespace wcp::sim

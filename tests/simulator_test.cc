#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.h"

namespace wcp::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(10, [&] { order.push_back(2); });
  s.schedule_at(5, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.events_processed(), 3);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    s.schedule_at(7, [&order, i] { order.push_back(i); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Host events (packet deliveries, node timers) and closures share one
// (t, seq) order: kind never reorders events due at the same time.
TEST(Simulator, HostEventsAndClosuresShareOneOrder) {
  struct Host final : EventHost {
    void fire(EventKind kind, std::uint32_t slot) override {
      fired.emplace_back(kind, slot);
    }
    std::vector<std::pair<EventKind, std::uint32_t>> fired;
  };
  Simulator s;
  Host host;
  s.set_host(&host);
  s.schedule_event(3, EventKind::kTimer, 7);
  s.schedule_at(3, [&] { host.fired.emplace_back(EventKind::kClosure, 0); });
  s.schedule_event(3, EventKind::kDelivery, 2);
  s.schedule_event(1, EventKind::kDelivery, 9);
  EXPECT_EQ(s.peak_queue_depth(), 4);
  s.run();
  const std::vector<std::pair<EventKind, std::uint32_t>> want = {
      {EventKind::kDelivery, 9},
      {EventKind::kTimer, 7},
      {EventKind::kClosure, 0},
      {EventKind::kDelivery, 2}};
  EXPECT_EQ(host.fired, want);
  EXPECT_EQ(s.events_processed(), 4);
  EXPECT_EQ(s.now(), 3);
}

// A packet delivery, a node timer and a closure due at the same instant fire
// in the order they were scheduled, for every order of scheduling them.
TEST(Simulator, TiesBreakInSchedulingOrderAcrossEventKinds) {
  struct Probe final : public Node {
    Probe(std::string order, std::vector<std::string>* log)
        : order_(std::move(order)), log_(log) {}
    void on_start() override {
      for (const char c : order_) {
        if (c == 'p')  // fixed latency 5: delivered at t = 5
          send(NodeAddr::monitor(ProcessId(0)), MsgKind::kApplication, 0, 1);
        if (c == 't') after(5, [this] { log_->push_back(stamp("timer")); });
        if (c == 'c')
          net().simulator().schedule_at(
              5, [this] { log_->push_back(stamp("closure")); });
      }
    }
    void on_packet(Packet&&) override {}
    std::string stamp(const char* what) const {
      return std::string(what) + "@" +
             std::to_string(net().simulator().now());
    }
    std::string order_;
    std::vector<std::string>* log_;
  };
  struct Sink final : public Node {
    explicit Sink(std::vector<std::string>* log) : log_(log) {}
    void on_packet(Packet&&) override {
      log_->push_back("packet@" + std::to_string(net().simulator().now()));
    }
    std::vector<std::string>* log_;
  };
  std::string order = "ctp";
  do {
    NetworkConfig cfg;
    cfg.num_processes = 1;
    cfg.latency = LatencyModel::fixed_delay(5);
    Network net(cfg);
    std::vector<std::string> log;
    net.add_node(NodeAddr::app(ProcessId(0)),
                 std::make_unique<Probe>(order, &log));
    net.add_node(NodeAddr::monitor(ProcessId(0)), std::make_unique<Sink>(&log));
    net.start_and_run();
    std::vector<std::string> want;
    for (const char c : order)
      want.push_back(c == 'p' ? "packet@5" : c == 't' ? "timer@5" : "closure@5");
    EXPECT_EQ(log, want) << "scheduling order " << order;
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Simulator, FiredClosuresAreReleased) {
  Simulator s;
  auto token = std::make_shared<int>(0);
  for (int i = 0; i < 8; ++i)
    s.schedule_at(i, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 9);
  s.run();
  EXPECT_EQ(*token, 8);
  EXPECT_EQ(token.use_count(), 1);  // every fired closure was destroyed
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 10) s.schedule_after(1, chain);
  };
  s.schedule_at(0, chain);
  s.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(s.now(), 9);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator s;
  s.schedule_at(5, [] {});
  s.step();
  EXPECT_THROW(s.schedule_at(4, [] {}), std::invalid_argument);
}

TEST(Simulator, StepOnEmptyReturnsFalse) {
  Simulator s;
  EXPECT_FALSE(s.step());
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator s;
  int ran = 0;
  s.schedule_at(1, [&] {
    ++ran;
    s.stop();
  });
  s.schedule_at(2, [&] { ++ran; });
  s.run();
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(s.idle());  // the second event is still pending
}

TEST(Simulator, MaxEventsBound) {
  Simulator s;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [] {});
  s.run(/*max_events=*/4);
  EXPECT_EQ(s.events_processed(), 4);
}

}  // namespace
}  // namespace wcp::sim

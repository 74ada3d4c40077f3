// Coverage for remaining public surfaces: split latency planes, the
// coordinator metrics slot, node timers, bimodal latency, result
// formatting, token wire sizes, and cross-feature combinations.
#include <gtest/gtest.h>

#include <sstream>

#include "detect/token_vc.h"
#include "sim/network.h"
#include "workload/random_workload.h"

namespace wcp {
namespace {

TEST(MonitorLatency, SeparatePlaneOnlyAffectsMonitorTraffic) {
  // One app->monitor message and one monitor->monitor message; the second
  // plane is 50x slower.
  struct Echo final : public sim::Node {
    void on_packet(sim::Packet&& p) override {
      received_at.push_back(net().simulator().now());
      if (p.from.role == sim::NodeRole::kApplication)
        send(sim::NodeAddr::monitor(ProcessId(1)), MsgKind::kToken, 0, 1);
    }
    std::vector<SimTime> received_at;
  };
  struct Pinger final : public sim::Node {
    void on_start() override {
      send(sim::NodeAddr::monitor(ProcessId(0)), MsgKind::kSnapshot, 0, 1);
    }
    void on_packet(sim::Packet&&) override {}
  };

  sim::NetworkConfig cfg;
  cfg.num_processes = 2;
  cfg.latency = sim::LatencyModel::fixed_delay(1);
  cfg.monitor_latency = sim::LatencyModel::fixed_delay(50);
  sim::Network net(cfg);
  auto echo0 = std::make_unique<Echo>();
  auto* e0 = echo0.get();
  auto echo1 = std::make_unique<Echo>();
  auto* e1 = echo1.get();
  net.add_node(sim::NodeAddr::monitor(ProcessId(0)), std::move(echo0));
  net.add_node(sim::NodeAddr::monitor(ProcessId(1)), std::move(echo1));
  net.add_node(sim::NodeAddr::app(ProcessId(0)), std::make_unique<Pinger>());
  net.start_and_run();
  ASSERT_EQ(e0->received_at.size(), 1u);
  ASSERT_EQ(e1->received_at.size(), 1u);
  EXPECT_EQ(e0->received_at[0], 1);       // app plane: fast
  EXPECT_EQ(e1->received_at[0], 1 + 50);  // monitor plane: slow
}

TEST(CoordinatorMetrics, SendsLandInTheExtraSlot) {
  struct Coord final : public sim::Node {
    void on_start() override {
      send(sim::NodeAddr::monitor(ProcessId(0)), MsgKind::kControl, 0, 8);
    }
    void on_packet(sim::Packet&&) override {}
  };
  struct Sink final : public sim::Node {
    void on_packet(sim::Packet&&) override {}
  };
  sim::NetworkConfig cfg;
  cfg.num_processes = 3;
  sim::Network net(cfg);
  net.add_node(sim::NodeAddr::coordinator(), std::make_unique<Coord>());
  net.add_node(sim::NodeAddr::monitor(ProcessId(0)), std::make_unique<Sink>());
  net.start_and_run();
  // Coordinator's slot is index N in the monitor metrics.
  EXPECT_EQ(net.monitor_metrics().at(ProcessId(3)).total_messages(), 1);
  for (int p = 0; p < 3; ++p)
    EXPECT_EQ(net.monitor_metrics().at(ProcessId(p)).total_messages(), 0);
}

TEST(NodeTimers, AfterFiresAtTheRightVirtualTime) {
  struct Timed final : public sim::Node {
    void on_start() override {
      after(7, [this] { fired_at = net().simulator().now(); });
    }
    void on_packet(sim::Packet&&) override {}
    SimTime fired_at = -1;
  };
  sim::NetworkConfig cfg;
  cfg.num_processes = 1;
  sim::Network net(cfg);
  auto node = std::make_unique<Timed>();
  auto* ptr = node.get();
  net.add_node(sim::NodeAddr::app(ProcessId(0)), std::move(node));
  net.start_and_run();
  EXPECT_EQ(ptr->fired_at, 7);
}

// A node records its crash, restart and timer firings with their times.
struct CrashTimed final : public sim::Node {
  void on_start() override { after(5, [this] { note("timer"); }); }
  void on_crash() override { note("crash"); }
  void on_restart() override { note("restart"); }
  void on_packet(sim::Packet&&) override {}
  void note(const char* what) {
    log.push_back(std::string(what) + "@" +
                  std::to_string(net().simulator().now()));
  }
  std::vector<std::string> log;
};

std::vector<std::string> run_crash_timed(SimTime crash_at, SimTime restart,
                                         std::int64_t* events) {
  sim::NetworkConfig cfg;
  cfg.num_processes = 1;
  const auto addr = sim::NodeAddr::monitor(ProcessId(0));
  cfg.faults.crashes = {sim::CrashEvent{addr, crash_at, restart}};
  sim::Network net(cfg);
  auto node = std::make_unique<CrashTimed>();
  auto* ptr = node.get();
  net.add_node(addr, std::move(node));
  net.start_and_run();
  EXPECT_TRUE(net.simulator().idle());
  *events = net.simulator().events_processed();
  return ptr->log;
}

// A timer that falls due inside a crash window is deferred, not lost: it
// fires at the restart instant, after on_restart.
TEST(NodeTimers, DeferredAcrossCrashFiresAfterRestart) {
  std::int64_t events = 0;
  EXPECT_EQ(run_crash_timed(3, 10, &events),
            (std::vector<std::string>{"crash@3", "restart@10", "timer@10"}));
  // crash, restart, the timer's first firing (deferred) and its second
  EXPECT_EQ(events, 4);
}

TEST(NodeTimers, DieWithPermanentCrash) {
  std::int64_t events = 0;
  EXPECT_EQ(run_crash_timed(3, -1, &events),
            (std::vector<std::string>{"crash@3"}));
  EXPECT_EQ(events, 2);  // the crash, and the timer dying when it falls due
}

TEST(BimodalLatency, MixesFastAndSpikes) {
  Rng rng(3);
  const auto m = sim::LatencyModel::bimodal(2, 0.2, 100);
  int fast = 0, spikes = 0;
  for (int i = 0; i < 2000; ++i) {
    const SimTime d = m.sample(rng);
    ASSERT_TRUE(d == 2 || d == 100);
    (d == 2 ? fast : spikes)++;
  }
  EXPECT_NEAR(static_cast<double>(spikes) / 2000.0, 0.2, 0.05);
  EXPECT_GT(fast, 0);
}

TEST(DetectionResult, StreamFormat) {
  detect::DetectionResult r;
  r.detected = true;
  r.cut = {2, 5};
  r.detect_time = 42;
  r.end_time = 50;
  r.token_hops = 7;
  std::ostringstream oss;
  oss << r;
  EXPECT_EQ(oss.str(), "DETECTED cut=[2,5] t_detect=42 t_end=50 hops=7");

  detect::DetectionResult none;
  std::ostringstream oss2;
  oss2 << none;
  EXPECT_EQ(oss2.str(), "not-detected t_detect=0 t_end=0 hops=0");
}

TEST(VcToken, WireSizeWithAndWithoutCandidateClocks) {
  detect::VcToken tok(4);
  // Paper token: G (4 words) + color (4 bits).
  EXPECT_EQ(tok.bits(false), 4 * 64 + 4);
  // Multi-token variant adds 4 clocks of 4 words.
  EXPECT_EQ(tok.bits(true), 4 * 64 + 4 + 4 * 4 * 64);
}

TEST(CrossFeature, CompressionPlusHaltPlusFifoAll) {
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 4;
  spec.events_per_process = 12;
  spec.local_pred_prob = 0.35;
  spec.ensure_detectable = true;
  spec.seed = 77;
  const auto comp = workload::make_random(spec);

  detect::RunOptions o;
  o.seed = 4;
  o.latency = sim::LatencyModel::bimodal(1, 0.1, 60);
  o.fifo_all = true;
  o.compress_clocks = true;
  o.halt_on_detect = true;
  const auto r = detect::run_token_vc(comp, o);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, *comp.first_wcp_cut());
  EXPECT_EQ(r.frozen_cut.size(), comp.num_processes());
}

}  // namespace
}  // namespace wcp

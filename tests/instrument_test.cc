#include "app/instrument.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>

#include "detect/direct_dep.h"
#include "detect/token_vc.h"

namespace wcp::app {
namespace {

TEST(Instrument, VectorClockFollowsFig2Rules) {
  sim::NetworkConfig cfg;
  cfg.num_processes = 2;
  sim::Network net(cfg);

  // Minimal sink so snapshot sends have a destination.
  class Sink final : public sim::Node {
   public:
    void on_packet(sim::Packet&&) override { ++count; }
    int count = 0;
  };
  net.add_node(sim::NodeAddr::monitor(ProcessId(0)), std::make_unique<Sink>());

  Instrument::Config ic;
  ic.vector_clock_mode = true;
  ic.predicate_width = 2;
  ic.pred_slot = 0;
  ic.monitor = sim::NodeAddr::monitor(ProcessId(0));
  Instrument inst(net, ProcessId(0), ic);

  EXPECT_EQ(inst.vclock(), VectorClock(std::vector<StateIndex>{1, 0}));
  const ClockHeader h = inst.on_send(ProcessId(1));
  EXPECT_EQ(h.vclock, VectorClock(std::vector<StateIndex>{1, 0}));
  EXPECT_EQ(inst.vclock(), VectorClock(std::vector<StateIndex>{2, 0}));

  ClockHeader incoming;
  incoming.vclock = VectorClock(std::vector<StateIndex>{1, 5});
  inst.on_receive(ProcessId(1), incoming);
  EXPECT_EQ(inst.vclock(), VectorClock(std::vector<StateIndex>{3, 5}));
}

TEST(Instrument, SnapshotFirstflagSemantics) {
  sim::NetworkConfig cfg;
  cfg.num_processes = 1;
  sim::Network net(cfg);
  class Sink final : public sim::Node {
   public:
    void on_packet(sim::Packet&& p) override {
      if (p.kind == MsgKind::kSnapshot) ++count;
    }
    int count = 0;
  };
  auto sink = std::make_unique<Sink>();
  auto* sink_ptr = sink.get();
  net.add_node(sim::NodeAddr::monitor(ProcessId(0)), std::move(sink));

  Instrument::Config ic;
  ic.vector_clock_mode = false;  // DD mode, but pred_slot set
  ic.pred_slot = 0;
  ic.monitor = sim::NodeAddr::monitor(ProcessId(0));
  Instrument inst(net, ProcessId(0), ic);

  inst.set_predicate(true);   // snapshot 1 (state 1)
  inst.set_predicate(true);   // same state: suppressed
  inst.set_predicate(false);
  inst.set_predicate(true);   // still same state: suppressed (already sent)
  net.simulator().run();
  EXPECT_EQ(sink_ptr->count, 1);

  (void)inst.on_send(ProcessId(0));  // new state; predicate still true
  net.simulator().run();
  EXPECT_EQ(sink_ptr->count, 2);
}

TEST(Recorder, ReconstructsComputation) {
  Recorder rec(2);
  rec.set_predicate_processes({ProcessId(0), ProcessId(1)});
  rec.record_pred(ProcessId(0), true);
  const auto id = rec.record_send(ProcessId(0), ProcessId(1));
  rec.record_receive(id);
  rec.record_pred(ProcessId(1), true);
  rec.record_pred(ProcessId(0), true);
  const auto c = rec.build();
  EXPECT_EQ(c.num_states(ProcessId(0)), 2);
  EXPECT_EQ(c.num_states(ProcessId(1)), 2);
  EXPECT_EQ(c.first_wcp_cut(), (std::vector<StateIndex>{2, 2}));
}

// A miniature live application (two ping-pong peers + a relay) whose
// detection must match the recorded computation's oracle across seeds.
struct PingMsg {
  ClockHeader hdr;
};

class Peer final : public sim::Node {
 public:
  Peer(Instrument::Config icfg, ProcessId other, int rounds, bool starts)
      : icfg_(std::move(icfg)), other_(other), rounds_(rounds),
        starts_(starts) {}

  void on_start() override {
    inst_.emplace(net(), pid(), icfg_);
    inst_->set_predicate(false);
    if (starts_) ping();
  }

  void on_packet(sim::Packet&& p) override {
    auto msg = sim::payload_cast<PingMsg>(std::move(p.payload));
    inst_->on_receive(p.from.pid, msg.hdr);
    // Predicate: "waiting" — true in states where we've handled an even
    // number of messages (an arbitrary but deterministic local condition).
    ++handled_;
    inst_->set_predicate(handled_ % 2 == 0);
    if (rounds_-- > 0) ping();
  }

 private:
  void ping() {
    PingMsg msg{inst_->on_send(other_)};
    inst_->set_predicate(handled_ % 2 == 0);
    send(sim::NodeAddr::app(other_), MsgKind::kApplication, msg,
         msg.hdr.bits());
  }

  Instrument::Config icfg_;
  std::optional<Instrument> inst_;
  ProcessId other_;
  int rounds_;
  bool starts_;
  int handled_ = 0;
};

TEST(Instrument, LiveDetectionMatchesRecordedOracle) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::NetworkConfig cfg;
    cfg.num_processes = 2;
    cfg.latency = sim::LatencyModel::uniform(1, 5);
    cfg.seed = seed;
    sim::Network net(cfg);

    auto recorder = std::make_shared<Recorder>(2);
    const std::vector<ProcessId> preds{ProcessId(0), ProcessId(1)};
    recorder->set_predicate_processes(preds);

    for (int p = 0; p < 2; ++p) {
      Instrument::Config ic;
      ic.vector_clock_mode = true;
      ic.predicate_width = 2;
      ic.pred_slot = p;
      ic.monitor = sim::NodeAddr::monitor(ProcessId(p));
      ic.recorder = recorder;
      net.add_node(sim::NodeAddr::app(ProcessId(p)),
                   std::make_unique<Peer>(ic, ProcessId(1 - p), 4, p == 0));
    }
    auto shared = detect::install_token_vc_monitors(net, preds);
    net.start_and_run();

    const auto recorded = recorder->build();
    const auto oracle = recorded.first_wcp_cut();
    ASSERT_EQ(shared->detected, oracle.has_value()) << "seed " << seed;
    if (oracle) {
      EXPECT_EQ(shared->cut, *oracle) << "seed " << seed;
    }
  }
}

TEST(Instrument, LiveDirectDependenceDetectionMatchesRecordedOracle) {
  // The same ping-pong pair, but instrumented in direct-dependence mode
  // with install_dd_monitors: scalar clocks, dependence lists, red chain.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::NetworkConfig cfg;
    cfg.num_processes = 2;
    cfg.latency = sim::LatencyModel::uniform(1, 5);
    cfg.seed = seed + 70;
    sim::Network net(cfg);

    auto recorder = std::make_shared<Recorder>(2);
    const std::vector<ProcessId> preds{ProcessId(0), ProcessId(1)};
    recorder->set_predicate_processes(preds);

    for (int p = 0; p < 2; ++p) {
      Instrument::Config ic;
      ic.vector_clock_mode = false;  // §4.1 instrumentation
      ic.pred_slot = p;
      ic.monitor = sim::NodeAddr::monitor(ProcessId(p));
      ic.recorder = recorder;
      net.add_node(sim::NodeAddr::app(ProcessId(p)),
                   std::make_unique<Peer>(ic, ProcessId(1 - p), 4, p == 0));
    }
    auto inst = detect::install_dd_monitors(net, 2);
    net.start_and_run();

    const auto recorded = recorder->build();
    const auto oracle = recorded.first_wcp_cut_all_processes();
    ASSERT_EQ(inst.shared->detected, oracle.has_value()) << "seed " << seed;
    if (oracle) {
      for (std::size_t p = 0; p < 2; ++p)
        EXPECT_EQ(inst.cores[p]->G(), (*oracle)[p]) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace wcp::app

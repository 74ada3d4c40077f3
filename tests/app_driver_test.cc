#include "app/app_driver.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "app/snapshot.h"
#include "workload/random_workload.h"

namespace wcp::app {
namespace {

using sim::NodeAddr;

// A monitor stand-in that records the snapshots its application sends.
class SnapshotSink final : public sim::Node {
 public:
  void on_packet(sim::Packet&& p) override {
    if (p.kind == MsgKind::kControl) {
      eos = true;
      return;
    }
    ASSERT_EQ(p.kind, MsgKind::kSnapshot);
    if (auto* vc = sim::payload_cast<VcSnapshot>(&p.payload)) {
      vc_snaps.push_back(*vc);
    } else {
      dd_snaps.push_back(sim::payload_cast<DdSnapshot>(p.payload));
    }
  }
  std::vector<VcSnapshot> vc_snaps;
  std::vector<DdSnapshot> dd_snaps;
  bool eos = false;
};

struct Harness {
  explicit Harness(const Computation& comp, Instrumentation mode,
                   bool relay_snapshots) {
    sim::NetworkConfig cfg;
    cfg.num_processes = comp.num_processes();
    cfg.latency = sim::LatencyModel::uniform(1, 5);
    cfg.seed = 12;
    net = std::make_unique<sim::Network>(cfg);
    for (std::size_t p = 0; p < comp.num_processes(); ++p) {
      const ProcessId pid(static_cast<int>(p));
      const bool has_monitor =
          mode == Instrumentation::kDirectDependence ||
          comp.predicate_slot(pid) >= 0;
      if (has_monitor) {
        auto sink = std::make_unique<SnapshotSink>();
        sinks.push_back(sink.get());
        sink_of[p] = sinks.back();
        net->add_node(NodeAddr::monitor(pid), std::move(sink));
      }
    }
    AppDriverOptions base;
    base.mode = mode;
    base.relay_snapshots = relay_snapshots;
    install_app_drivers(*net, comp, base);
    net->start_and_run();
  }
  std::unique_ptr<sim::Network> net;
  std::vector<SnapshotSink*> sinks;
  std::map<std::size_t, SnapshotSink*> sink_of;
};

// P0 true at states 1 and 2; P1 true at state 2 only.
Computation small_comp() {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(1));
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  return b.build();
}

TEST(AppDriverVc, EmitsOneSnapshotPerTrueState) {
  const auto comp = small_comp();
  Harness h(comp, Instrumentation::kVectorClock, false);
  ASSERT_EQ(h.sink_of[0]->vc_snaps.size(), 2u);
  ASSERT_EQ(h.sink_of[1]->vc_snaps.size(), 1u);
  // Fig. 2 clocks: P0 state 1 = [1,0], state 2 = [2,0]; P1 state 2 = [1,2].
  EXPECT_EQ(h.sink_of[0]->vc_snaps[0].vclock,
            VectorClock(std::vector<StateIndex>{1, 0}));
  EXPECT_EQ(h.sink_of[0]->vc_snaps[1].vclock,
            VectorClock(std::vector<StateIndex>{2, 0}));
  EXPECT_EQ(h.sink_of[1]->vc_snaps[0].vclock,
            VectorClock(std::vector<StateIndex>{1, 2}));
  EXPECT_TRUE(h.sink_of[0]->eos);
  EXPECT_TRUE(h.sink_of[1]->eos);
}

TEST(AppDriverVc, SnapshotClocksMatchGroundTruthOnRandomRuns) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 6;  // all processes in the predicate: clocks line up
  spec.events_per_process = 20;
  spec.local_pred_prob = 0.4;
  spec.seed = 5;
  const auto comp = workload::make_random(spec);
  Harness h(comp, Instrumentation::kVectorClock, false);

  for (std::size_t p = 0; p < comp.num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    std::size_t snap_idx = 0;
    for (StateIndex k = 1; k <= comp.num_states(pid); ++k) {
      if (!comp.local_pred(pid, k)) continue;
      ASSERT_LT(snap_idx, h.sink_of[p]->vc_snaps.size());
      // With n == N the replayed width-n clock equals the ground truth.
      EXPECT_EQ(h.sink_of[p]->vc_snaps[snap_idx].vclock,
                comp.ground_truth_clock(pid, k))
          << "P" << p << " state " << k;
      ++snap_idx;
    }
    EXPECT_EQ(snap_idx, h.sink_of[p]->vc_snaps.size());
  }
}

TEST(AppDriverVc, RelaysCarryCausalityButDoNotSnapshot) {
  // P0 -> P2 (relay) -> P1; predicate over {P0, P1}.
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0), ProcessId(1)});
  b.mark_pred(ProcessId(0), true);
  b.transfer(ProcessId(0), ProcessId(2));
  b.transfer(ProcessId(2), ProcessId(1));
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  Harness h(comp, Instrumentation::kVectorClock, false);
  // P1's snapshot (slot 1, state 2) must see P0's state 1 through the relay.
  ASSERT_EQ(h.sink_of[1]->vc_snaps.size(), 1u);
  EXPECT_EQ(h.sink_of[1]->vc_snaps[0].vclock[0], 1);
  EXPECT_EQ(h.sink_of[1]->vc_snaps[0].vclock[1], 2);
  // The relay has no monitor and no snapshots.
  EXPECT_EQ(h.sink_of.count(2), 0u);
}

TEST(AppDriverDd, ScalarClocksAndDependences) {
  const auto comp = small_comp();
  Harness h(comp, Instrumentation::kDirectDependence, true);
  // P0 snapshots states 1 and 2 (pred true); P1 snapshots every state
  // (relay_snapshots makes non-pred... here both are predicate processes,
  // so P1 snapshots only state 2).
  ASSERT_EQ(h.sink_of[0]->dd_snaps.size(), 2u);
  EXPECT_EQ(h.sink_of[0]->dd_snaps[0].clock, 1);
  EXPECT_EQ(h.sink_of[0]->dd_snaps[1].clock, 2);
  EXPECT_TRUE(h.sink_of[0]->dd_snaps[0].deps.empty());
  EXPECT_TRUE(h.sink_of[0]->dd_snaps[1].deps.empty());

  ASSERT_EQ(h.sink_of[1]->dd_snaps.size(), 1u);
  EXPECT_EQ(h.sink_of[1]->dd_snaps[0].clock, 2);
  ASSERT_EQ(h.sink_of[1]->dd_snaps[0].deps.size(), 1u);
  EXPECT_EQ(h.sink_of[1]->dd_snaps[0].deps.items()[0],
            (Dependence{ProcessId(0), 1}));
}

TEST(AppDriverDd, NonPredicateProcessesSnapshotEveryState) {
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0), ProcessId(1)});
  b.transfer(ProcessId(0), ProcessId(2));
  b.transfer(ProcessId(2), ProcessId(1));
  const auto comp = b.build();
  Harness h(comp, Instrumentation::kDirectDependence, true);
  // P2 has 3 states and snapshots all of them.
  ASSERT_EQ(h.sink_of[2]->dd_snaps.size(), 3u);
  EXPECT_EQ(h.sink_of[2]->dd_snaps[0].clock, 1);
  EXPECT_EQ(h.sink_of[2]->dd_snaps[1].clock, 2);
  EXPECT_EQ(h.sink_of[2]->dd_snaps[2].clock, 3);
  // The receive dependence appears in the snapshot of state 2.
  ASSERT_EQ(h.sink_of[2]->dd_snaps[1].deps.size(), 1u);
  EXPECT_EQ(h.sink_of[2]->dd_snaps[1].deps.items()[0],
            (Dependence{ProcessId(0), 1}));
}

TEST(AppDriverDd, DependencesAccumulateAcrossUntrueStates) {
  // P1's pred is true only at its final state; all receive deps since the
  // last snapshot must be batched into that snapshot.
  ComputationBuilder b(3);
  b.set_predicate_processes({ProcessId(0), ProcessId(1)});
  b.transfer(ProcessId(0), ProcessId(1));  // P1 state 2
  b.transfer(ProcessId(2), ProcessId(1));  // P1 state 3
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  Harness h(comp, Instrumentation::kDirectDependence, true);
  // P1: snapshot of state 1 (pred false? no — state 1 pred false, so no
  // snapshot) ... only state 3 is true.
  ASSERT_EQ(h.sink_of[1]->dd_snaps.size(), 1u);
  const auto& snap = h.sink_of[1]->dd_snaps[0];
  EXPECT_EQ(snap.clock, 3);
  ASSERT_EQ(snap.deps.size(), 2u);
  EXPECT_EQ(snap.deps.items()[0], (Dependence{ProcessId(0), 1}));
  EXPECT_EQ(snap.deps.items()[1], (Dependence{ProcessId(2), 1}));
}

TEST(AppDriver, ReplayIsInsensitiveToLatencySeed) {
  // The logical content of snapshots must not depend on network timing.
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 5;
  spec.events_per_process = 15;
  spec.local_pred_prob = 0.5;
  spec.seed = 9;
  const auto comp = workload::make_random(spec);

  auto collect = [&](std::uint64_t net_seed) {
    sim::NetworkConfig cfg;
    cfg.num_processes = comp.num_processes();
    cfg.latency = sim::LatencyModel::uniform(1, 20);
    cfg.seed = net_seed;
    sim::Network net(cfg);
    std::vector<SnapshotSink*> sinks;
    for (std::size_t p = 0; p < comp.num_processes(); ++p) {
      auto sink = std::make_unique<SnapshotSink>();
      sinks.push_back(sink.get());
      net.add_node(NodeAddr::monitor(ProcessId(static_cast<int>(p))),
                   std::move(sink));
    }
    AppDriverOptions base;
    base.mode = Instrumentation::kVectorClock;
    install_app_drivers(net, comp, base);
    net.start_and_run();
    std::vector<std::vector<VectorClock>> out;
    for (auto* s : sinks) {
      std::vector<VectorClock> clocks;
      for (const auto& snap : s->vc_snaps) clocks.push_back(snap.vclock);
      out.push_back(std::move(clocks));
    }
    return out;
  };
  EXPECT_EQ(collect(1), collect(123456));
}

}  // namespace
}  // namespace wcp::app

// Frontier-GC tests: the session's retained state must be bounded by the
// GC cadence — flat in stream length — while a GC-disabled session grows
// linearly; and GC must never change a verdict (the lattice core's collect
// remaps its visited arena and heap without losing reachable cuts).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "detect/lattice.h"
#include "serve/protocol.h"
#include "serve/replay.h"
#include "serve/session.h"
#include "workload/random_workload.h"

namespace wcp::serve {
namespace {

/// Streams `states_per_slot` snapshots on two independent (never
/// communicating) slots with the local predicate false everywhere, under
/// token + checker + slicer subscriptions (the bounded-frontier family; the
/// lattice explorer is inherently O(m^n) and measured separately).
ServeStats run_synthetic(std::int64_t states_per_slot, std::size_t gc_every) {
  ServeOptions opts;
  opts.gc_every = gc_every;
  Session session(opts, [](std::vector<std::uint8_t>) {});
  std::uint64_t seq = 0;
  const auto feed = [&](const Frame& f) {
    session.on_frame(encode_frame(f, seq++));
  };
  feed(make_hello(2, 1));
  feed(make_subscribe(0, StreamAlgo::kToken, 0));
  feed(make_subscribe(1, StreamAlgo::kChecker, 0));
  feed(make_subscribe(2, StreamAlgo::kSlicer, 0));
  for (StateIndex k = 1; k <= states_per_slot; ++k) {
    feed(make_snapshot(0, 0, {k, 0}));
    feed(make_snapshot(1, 0, {0, k}));
  }
  feed(make_finish());
  EXPECT_TRUE(session.finished());
  for (const VerdictBody& v : session.verdicts())
    EXPECT_FALSE(v.detected) << "predicate is false everywhere";
  return session.stats();
}

TEST(ServeGc, RetainedStatesBoundedByGcCadence) {
  const std::size_t gc_every = 64;
  const ServeStats s = run_synthetic(4000, gc_every);
  // Between GC rounds at most gc_every snapshots accumulate on top of
  // whatever the frontier had not yet released at the previous round (a
  // handful of positions per slot).
  EXPECT_LE(s.peak_retained_states,
            static_cast<std::int64_t>(2 * gc_every + 16))
      << "GC failed to keep the snapshot store bounded";
  EXPECT_GT(s.gc_rounds, 0);
  EXPECT_GT(s.states_retired, 7000);
}

TEST(ServeGc, DisabledGcGrowsLinearly) {
  const ServeStats s = run_synthetic(2000, /*gc_every=*/0);
  EXPECT_EQ(s.gc_rounds, 0);
  EXPECT_EQ(s.states_retired, 0);
  EXPECT_EQ(s.peak_retained_states, 4000);  // every snapshot retained
}

TEST(ServeGc, PeakMemoryIsFlatIn10xStreamLength) {
  // The acceptance bar: a stream 10x longer than the largest committed
  // trace (164 states) completes with the same bounded peak.
  const ServeStats base = run_synthetic(400, 64);
  const ServeStats long10x = run_synthetic(4000, 64);
  EXPECT_LE(long10x.peak_retained_states, base.peak_retained_states + 4);
  EXPECT_LE(long10x.store_peak_bytes, base.store_peak_bytes + 64);
  // Checker-side state (queues, candidate cut, slicer fixpoint) is flat
  // too: sampled at every GC round.
  EXPECT_LE(long10x.checker_peak_bytes, 2 * base.checker_peak_bytes + 1024);
}

TEST(ServeGc, GcStatsAccountExactly) {
  const ServeStats s = run_synthetic(1000, 10);
  // finish() applies the trailing partial window too, so all but at most
  // one window's worth of states end up retired by the final frontier.
  EXPECT_EQ(s.snapshots_in, 2000);
  EXPECT_GE(s.states_retired, 2000 - 2 * 10 - 2);
  EXPECT_GT(s.store_peak_bytes, 0);
}

TEST(ServeGc, LatticeCollectPreservesVerdictUnderAggressiveGc) {
  // Random communicating traces, lattice-online only, GC after every
  // snapshot: collect() must compact the visited arena + ready heap + park
  // lists without ever dropping a cut that is still reachable.
  for (const std::uint64_t seed : {5u, 23u, 47u}) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 14;
    spec.seed = seed;
    spec.ensure_detectable = (seed != 23u);
    spec.local_pred_prob = 0.25;
    const auto comp = workload::make_random(spec);

    ReplayOptions no_gc;
    no_gc.subs.push_back({StreamAlgo::kLatticeOnline, 0, -1});
    no_gc.serve.gc_every = 0;
    ReplayOptions hard = no_gc;
    hard.serve.gc_every = 1;

    const ReplayResult a = replay_stream(comp, no_gc);
    const ReplayResult b = replay_stream(comp, hard);
    ASSERT_EQ(a.verdicts.size(), 1u);
    ASSERT_EQ(b.verdicts.size(), 1u);
    EXPECT_EQ(a.verdicts[0].detected, b.verdicts[0].detected)
        << "seed " << seed;
    EXPECT_EQ(a.verdicts[0].cut, b.verdicts[0].cut) << "seed " << seed;
    // And neither run differs from the offline walk.
    const auto offline = detect::detect_lattice(comp);
    EXPECT_EQ(a.verdicts[0].detected, offline.detected) << "seed " << seed;
    EXPECT_EQ(a.verdicts[0].cut, offline.cut) << "seed " << seed;
  }
}

TEST(ServeGc, CutsRetiredReportedForLattice) {
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 3;
  spec.events_per_process = 16;
  spec.seed = 101;
  spec.local_pred_prob = 0.05;  // keep the explorer busy to the end
  const auto comp = workload::make_random(spec);
  ReplayOptions opts;
  opts.subs.push_back({StreamAlgo::kLatticeOnline, 0, -1});
  opts.serve.gc_every = 8;
  const ReplayResult r = replay_stream(comp, opts);
  EXPECT_GT(r.stats.gc_rounds, 0);
  // Whether any cut retires depends on the trace's communication shape;
  // the counter must at least be internally consistent.
  EXPECT_GE(r.stats.cuts_retired, 0);
}

}  // namespace
}  // namespace wcp::serve

// Session-level tests of the streaming service (src/serve/session.h):
// protocol-state violations (each failing with the "wcp-stream parse
// error:" prefix), multi-tenant predicate multiplexing over one shared
// snapshot stream, one cumulative ACK per batch of frames, and
// fault-tolerant delivery — a lossy, duplicating, reordering pipe must
// yield verdicts identical to a clean run.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/replay.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "workload/random_workload.h"

namespace wcp::serve {
namespace {

/// Drives a session directly (no transport): feed() encodes with an
/// auto-incremented seq and applies; responses are collected.
struct DirectSession {
  ServeOptions opts;
  std::vector<Frame> out;
  Session session{opts, [this](std::vector<std::uint8_t> bytes) {
                    out.push_back(decode_frame(bytes));
                  }};
  std::uint64_t seq = 0;

  void feed(const Frame& f) {
    // seq advances only on success, so a frame after a rejected one reuses
    // its number (the rejected frame was never applied).
    session.on_frame(encode_frame(f, seq));
    ++seq;
  }
};

void expect_violation(DirectSession& s, const Frame& f,
                      const std::string& needle) {
  try {
    s.feed(f);
    FAIL() << "expected a violation containing: " << needle;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("wcp-stream parse error: ", 0), 0u) << msg;
    EXPECT_NE(msg.find(needle), std::string::npos) << msg;
  }
}

TEST(ServeSession, HappyPathSingleSubscription) {
  DirectSession s;
  s.feed(make_hello(2, 1));
  s.feed(make_subscribe(0, StreamAlgo::kChecker, 0));
  // Two concurrent true states: cut [1,1] is consistent (clocks [1,0],[0,1]).
  s.feed(make_snapshot(0, 1, {1, 0}));
  s.feed(make_snapshot(1, 1, {0, 1}));
  s.feed(make_finish());
  ASSERT_TRUE(s.session.finished());
  ASSERT_EQ(s.session.verdicts().size(), 1u);
  EXPECT_TRUE(s.session.verdicts()[0].detected);
  EXPECT_EQ(s.session.verdicts()[0].cut, (std::vector<StateIndex>{1, 1}));
  // Responses: the five frames form one batch, so the only ACK is the one
  // FINISH sends for its batch; plus the verdict and the stats.
  int acks = 0, verdicts = 0, stats = 0;
  for (const Frame& f : s.out) {
    acks += f.type == FrameType::kAck;
    verdicts += f.type == FrameType::kVerdict;
    stats += f.type == FrameType::kStats;
  }
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(verdicts, 1);
  EXPECT_EQ(stats, 1);
}

// ---- cumulative ACKs, one per batch -----------------------------------

/// The ACK frames among a session's responses, in order.
std::vector<std::uint64_t> acks_of(const std::vector<Frame>& out) {
  std::vector<std::uint64_t> acks;
  for (const Frame& f : out)
    if (f.type == FrameType::kAck) acks.push_back(f.ack.next_seq);
  return acks;
}

/// hello, subscribe, then one concurrent true state per slot.
const std::vector<Frame> kTwoSlotStream = {
    make_hello(2, 1),
    make_subscribe(0, StreamAlgo::kChecker, 0),
    make_snapshot(0, 1, {1, 0}),
    make_snapshot(1, 1, {0, 1}),
};

TEST(ServeSession, InOrderBatchGetsOneCumulativeAck) {
  DirectSession s;
  for (const Frame& f : kTwoSlotStream) s.feed(f);
  EXPECT_TRUE(acks_of(s.out).empty()) << "no ACK before the batch ends";
  s.session.end_batch();
  EXPECT_EQ(acks_of(s.out),
            (std::vector<std::uint64_t>{kTwoSlotStream.size()}));
  s.session.end_batch();  // nothing fed since: no second ACK
  EXPECT_EQ(acks_of(s.out).size(), 1u);
}

TEST(ServeSession, DuplicateOnlyBatchIsStillAcked) {
  DirectSession s;
  s.feed(kTwoSlotStream[0]);
  s.feed(kTwoSlotStream[1]);
  s.session.end_batch();
  // The client missed that ACK and resends both frames: the batch applies
  // nothing, but must be ACKed or the client resends forever.
  s.session.on_frame(encode_frame(kTwoSlotStream[0], 0));
  s.session.on_frame(encode_frame(kTwoSlotStream[1], 1));
  s.session.end_batch();
  EXPECT_EQ(acks_of(s.out), (std::vector<std::uint64_t>{2, 2}));
  EXPECT_EQ(s.session.stats().duplicates, 2);
}

TEST(ServeSession, GapFillAcksPastReleasedSuccessors) {
  DirectSession s;
  for (const std::uint64_t seq : {0u, 2u, 3u})
    s.session.on_frame(encode_frame(kTwoSlotStream[seq], seq));
  s.session.end_batch();  // 2 and 3 stashed behind the gap at 1
  s.session.on_frame(encode_frame(kTwoSlotStream[1], 1));
  s.session.end_batch();  // 1 releases 2 and 3
  EXPECT_EQ(acks_of(s.out), (std::vector<std::uint64_t>{1, 4}));
  EXPECT_EQ(s.session.stats().resequenced, 2);
  EXPECT_EQ(s.session.stats().snapshots_in, 2);
}

TEST(ServeSession, StatsCountEveryAckFrame) {
  DirectSession s;
  s.feed(kTwoSlotStream[0]);
  s.session.end_batch();
  s.feed(kTwoSlotStream[1]);
  s.feed(kTwoSlotStream[2]);
  s.session.end_batch();
  s.session.on_frame(encode_frame(kTwoSlotStream[0], 0));  // duplicate
  s.session.end_batch();
  s.feed(kTwoSlotStream[3]);
  s.feed(make_finish());
  s.session.end_batch();  // finished: FINISH already ACKed its batch
  ASSERT_TRUE(s.session.finished());
  ASSERT_GE(s.out.size(), 2u);
  // FINISH's batch ends with its ACK, then STATS, which counts that ACK.
  EXPECT_EQ(s.out[s.out.size() - 2].type, FrameType::kAck);
  EXPECT_EQ(s.out[s.out.size() - 2].ack.next_seq, 5u);
  ASSERT_EQ(s.out.back().type, FrameType::kStats);
  const std::vector<std::uint64_t> acks = acks_of(s.out);
  EXPECT_EQ(acks, (std::vector<std::uint64_t>{1, 3, 3, 5}));
  EXPECT_EQ(s.out.back().stats.stats.acks_sent,
            static_cast<std::int64_t>(acks.size()));
  EXPECT_EQ(s.session.stats().acks_sent,
            static_cast<std::int64_t>(acks.size()));
}

TEST(ServeSession, MultiTenantPredicateBits) {
  // One stream, three subscriptions on three predicate bits. Bit 0 is
  // always true, bit 1 true only in causally ordered states (never
  // concurrent), bit 2 never true.
  DirectSession s;
  s.feed(make_hello(2, 3));
  s.feed(make_subscribe(10, StreamAlgo::kToken, 0));
  s.feed(make_subscribe(11, StreamAlgo::kChecker, 1));
  s.feed(make_subscribe(12, StreamAlgo::kSlicer, 2));
  // P0: two states; P1 hears about P0's state 2 before its own state 2, so
  // (2 on P0, 2 on P1) is ordered, not concurrent: pred bit 1 only there.
  s.feed(make_snapshot(0, 0b001, {1, 0}));
  s.feed(make_snapshot(1, 0b001, {0, 1}));
  s.feed(make_snapshot(0, 0b011, {2, 0}));
  s.feed(make_snapshot(1, 0b011, {2, 2}));
  s.feed(make_finish());
  ASSERT_TRUE(s.session.finished());
  ASSERT_EQ(s.session.verdicts().size(), 3u);
  for (const VerdictBody& v : s.session.verdicts()) {
    if (v.sub_id == 10) {
      EXPECT_TRUE(v.detected);
      EXPECT_EQ(v.cut, (std::vector<StateIndex>{1, 1}));
    } else if (v.sub_id == 11) {
      // States (2,2) both satisfy bit 1 but are causally ordered: no
      // consistent cut exists.
      EXPECT_FALSE(v.detected) << "ordered states must not form a cut";
    } else {
      EXPECT_FALSE(v.detected);
    }
  }
  EXPECT_EQ(s.session.stats().subscriptions, 3);
}

TEST(ServeSession, OutOfOrderFramesAreResequenced) {
  ServeOptions opts;
  std::vector<Frame> out;
  Session session(opts, [&out](std::vector<std::uint8_t> bytes) {
    out.push_back(decode_frame(bytes));
  });
  const std::vector<Frame> frames = {
      make_hello(2, 1),
      make_subscribe(0, StreamAlgo::kChecker, 0),
      make_snapshot(0, 1, {1, 0}),
      make_snapshot(1, 1, {0, 1}),
      make_finish(),
  };
  // Deliver in a scrambled but gap-free order; duplicates sprinkled in.
  const std::vector<std::size_t> order = {1, 0, 0, 3, 2, 1, 4};
  for (const std::size_t i : order)
    session.on_frame(encode_frame(frames[i], i));
  ASSERT_TRUE(session.finished());
  ASSERT_EQ(session.verdicts().size(), 1u);
  EXPECT_TRUE(session.verdicts()[0].detected);
  EXPECT_GT(session.stats().resequenced, 0);
  EXPECT_GT(session.stats().duplicates, 0);
}

TEST(ServeSession, ReseqWindowOverflowFailsConnection) {
  ServeOptions opts;
  opts.reseq_window = 4;
  Session session(opts, [](std::vector<std::uint8_t>) {});
  session.on_frame(encode_frame(make_hello(1, 1), 0));
  try {
    // Frames 2..7 arrive while frame 1 is missing: the 5th stash bursts
    // the window.
    for (std::uint64_t seq = 2; seq <= 7; ++seq)
      session.on_frame(encode_frame(make_snapshot(0, 1, {1}), seq));
    FAIL() << "expected resequence window violation";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resequence window exceeded"),
              std::string::npos);
  }
}

// ---- protocol-state violations ----------------------------------------

TEST(ServeSession, ViolationCorpus) {
  {
    DirectSession s;
    expect_violation(s, make_subscribe(0, StreamAlgo::kToken, 0),
                     "subscribe before hello");
  }
  {
    DirectSession s;
    s.feed(make_hello(2, 1));
    expect_violation(s, make_hello(2, 1), "duplicate hello");
  }
  {
    DirectSession s;
    s.feed(make_hello(2, 1));
    expect_violation(s, make_snapshot(2, 1, {1, 0}),
                     "process slot 2 out of range [0, 2)");
  }
  {
    // Non-monotone own component: slot 0 jumps from state 1 to state 3.
    DirectSession s;
    s.feed(make_hello(2, 1));
    s.feed(make_subscribe(0, StreamAlgo::kToken, 0));
    s.feed(make_snapshot(0, 1, {1, 0}));
    expect_violation(s, make_snapshot(0, 1, {3, 0}),
                     "non-monotone clock on slot 0: own component 3");
  }
  {
    // Clock component decreasing vs the previous snapshot on the slot.
    DirectSession s;
    s.feed(make_hello(2, 1));
    s.feed(make_subscribe(0, StreamAlgo::kToken, 0));
    s.feed(make_snapshot(0, 1, {1, 5}));
    expect_violation(s, make_snapshot(0, 1, {2, 4}),
                     "non-monotone clock on slot 0: component 1");
  }
  {
    DirectSession s;
    s.feed(make_hello(2, 1));
    s.feed(make_subscribe(0, StreamAlgo::kToken, 0));
    expect_violation(s, make_subscribe(0, StreamAlgo::kChecker, 0),
                     "subscription id 0 reused");
  }
  {
    DirectSession s;
    s.feed(make_hello(2, 2));
    expect_violation(s, make_subscribe(0, StreamAlgo::kToken, 2),
                     "predicate index 2 out of range");
  }
  {
    DirectSession s;
    s.feed(make_hello(2, 1));
    s.feed(make_subscribe(0, StreamAlgo::kToken, 0));
    s.feed(make_snapshot(0, 1, {1, 0}));
    expect_violation(s, make_subscribe(1, StreamAlgo::kToken, 0),
                     "subscribe after the first snapshot");
  }
  {
    DirectSession s;
    s.feed(make_hello(2, 1));
    s.feed(make_eos(0));
    expect_violation(s, make_snapshot(0, 1, {1, 0}), "after its eos");
    expect_violation(s, make_eos(0), "duplicate eos on slot 0");
  }
  {
    DirectSession s;
    s.feed(make_hello(1, 1));
    s.feed(make_finish());
    expect_violation(s, make_snapshot(0, 1, {1}), "frame after finish");
  }
  {
    DirectSession s;
    expect_violation(s, make_ack(0), "server frame type ack");
  }
}

// ---- fault-tolerant delivery ------------------------------------------

TEST(ServeSession, FaultyPipeYieldsIdenticalVerdicts) {
  const auto comp = workload::make_random([] {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 14;
    spec.seed = 1234;
    spec.ensure_detectable = true;
    return spec;
  }());

  ReplayOptions clean;
  for (const auto algo : {StreamAlgo::kToken, StreamAlgo::kChecker,
                          StreamAlgo::kLatticeOnline, StreamAlgo::kSlicer})
    clean.subs.push_back({algo, 0, -1});
  const ReplayResult base = replay_stream(comp, clean);
  ASSERT_EQ(base.verdicts.size(), 4u);
  ASSERT_EQ(base.pipe.dropped, 0);
  ASSERT_EQ(base.retransmits, 0);

  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    ReplayOptions faulty = clean;
    faulty.faults.plan.drop = 0.25;
    faulty.faults.plan.dup = 0.10;
    faulty.faults.plan.seed = seed;
    faulty.faults.reorder = 0.20;
    const ReplayResult r = replay_stream(comp, faulty);
    EXPECT_GT(r.pipe.dropped + r.pipe.duplicated + r.pipe.reordered, 0)
        << "fault plan did nothing (seed " << seed << ")";
    ASSERT_EQ(r.verdicts.size(), base.verdicts.size());
    for (std::size_t i = 0; i < base.verdicts.size(); ++i) {
      EXPECT_EQ(r.verdicts[i].sub_id, base.verdicts[i].sub_id);
      EXPECT_EQ(r.verdicts[i].detected, base.verdicts[i].detected);
      EXPECT_EQ(r.verdicts[i].cut, base.verdicts[i].cut)
          << "verdict diverged under faults (seed " << seed << ")";
    }
  }
}

TEST(ServeSession, DropExactIndicesRecovered) {
  const auto comp = workload::make_random([] {
    workload::RandomSpec spec;
    spec.num_processes = 4;
    spec.num_predicate = 2;
    spec.events_per_process = 10;
    spec.seed = 55;
    return spec;
  }());
  ReplayOptions opts;
  opts.subs.push_back({StreamAlgo::kChecker, 0, -1});
  const ReplayResult base = replay_stream(comp, opts);

  ReplayOptions lossy = opts;
  lossy.faults.plan.drop_exact = {0, 1, 5, 9};  // hello + subscribe included
  const ReplayResult r = replay_stream(comp, lossy);
  EXPECT_EQ(r.pipe.dropped, 4);
  EXPECT_GT(r.retransmits, 0);
  ASSERT_EQ(r.verdicts.size(), base.verdicts.size());
  EXPECT_EQ(r.verdicts[0].detected, base.verdicts[0].detected);
  EXPECT_EQ(r.verdicts[0].cut, base.verdicts[0].cut);
}

}  // namespace
}  // namespace wcp::serve

// End-to-end equivalence: a trace streamed through the full
// client -> wire -> session path must produce, for every algorithm, exactly
// the verdict of offline detection on the same trace — on random
// computations and on every committed example trace. Also exercises the
// real TCP loopback transport against an in-process event-loop server.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/replay.h"
#include "serve/event_loop.h"
#include "serve/tcp.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"

namespace wcp::serve {
namespace {

const std::vector<StreamAlgo> kAllAlgos = {
    StreamAlgo::kToken, StreamAlgo::kChecker, StreamAlgo::kLatticeOnline,
    StreamAlgo::kSlicer};

ReplayOptions all_algo_options() {
  ReplayOptions opts;
  for (const StreamAlgo algo : kAllAlgos) opts.subs.push_back({algo, 0, -1});
  return opts;
}

/// Every algorithm must agree with the offline oracle: detection iff a
/// satisfying cut exists, and then the unique pointwise-minimal one.
void expect_verdicts_match_oracle(const Computation& comp,
                                  const ReplayResult& r) {
  const std::optional<std::vector<StateIndex>> oracle = comp.first_wcp_cut();
  ASSERT_EQ(r.verdicts.size(), kAllAlgos.size());
  for (const VerdictBody& v : r.verdicts) {
    EXPECT_FALSE(v.truncated);
    EXPECT_EQ(v.detected, oracle.has_value())
        << "sub " << v.sub_id << " (" << to_string(kAllAlgos[v.sub_id])
        << ") disagrees with the oracle";
    if (v.detected && oracle) {
      EXPECT_EQ(v.cut, *oracle);
    }
  }
}

TEST(ServeStream, MatchesOracleOnRandomTraces) {
  for (const std::uint64_t seed : {3u, 17u, 29u, 41u, 53u}) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 3;
    spec.events_per_process = 16;
    spec.seed = seed;
    spec.ensure_detectable = (seed % 2) != 0;
    spec.local_pred_prob = (seed % 3 == 0) ? 0.1 : 0.35;
    const auto comp = workload::make_random(spec);
    const ReplayResult r = replay_stream(comp, all_algo_options());
    expect_verdicts_match_oracle(comp, r);
  }
}

TEST(ServeStream, MatchesOracleOnCommittedTraces) {
  const std::filesystem::path dir = WCP_EXAMPLE_TRACES;
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  int traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++traces;
    const auto comp = load_any_trace_file(entry.path().string());
    const ReplayResult r = replay_stream(comp, all_algo_options());
    expect_verdicts_match_oracle(comp, r);
  }
  EXPECT_GE(traces, 4) << "committed example traces went missing";
}

TEST(ServeStream, GcOnDoesNotChangeVerdicts) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 3;
  spec.events_per_process = 20;
  spec.seed = 61;
  spec.ensure_detectable = true;
  const auto comp = workload::make_random(spec);

  ReplayOptions no_gc = all_algo_options();
  no_gc.serve.gc_every = 0;
  ReplayOptions aggressive = all_algo_options();
  aggressive.serve.gc_every = 1;

  const ReplayResult a = replay_stream(comp, no_gc);
  const ReplayResult b = replay_stream(comp, aggressive);
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].detected, b.verdicts[i].detected);
    EXPECT_EQ(a.verdicts[i].cut, b.verdicts[i].cut);
  }
  EXPECT_EQ(b.stats.gc_rounds, b.stats.snapshots_in);
  EXPECT_GT(b.stats.states_retired, 0);
  EXPECT_EQ(a.stats.states_retired, 0);
}

TEST(ServeStream, MultiplePredicatesOneStream) {
  // Two predicates multiplexed over one snapshot stream: bit 0 = the
  // trace's local predicate, bit 1 = always true (detects the minimal
  // consistent cut [1,1,...,1] -- initial states are pairwise concurrent).
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 3;
  spec.seed = 71;
  spec.events_per_process = 12;
  const auto comp = workload::make_random(spec);

  ReplayOptions opts;
  opts.num_predicates = 2;
  opts.subs.push_back({StreamAlgo::kChecker, 0, -1});
  opts.subs.push_back({StreamAlgo::kChecker, 1, -1});
  opts.subs.push_back({StreamAlgo::kToken, 1, -1});
  const auto preds = comp.predicate_processes();
  opts.pred_mask = [&comp, preds](std::size_t slot, StateIndex k) {
    return (comp.local_pred(preds[slot], k) ? 1u : 0u) | 2u;
  };
  const ReplayResult r = replay_stream(comp, opts);
  ASSERT_EQ(r.verdicts.size(), 3u);
  const std::optional<std::vector<StateIndex>> oracle = comp.first_wcp_cut();
  const std::vector<StateIndex> ones(preds.size(), 1);
  for (const VerdictBody& v : r.verdicts) {
    if (v.sub_id == 0) {
      EXPECT_EQ(v.detected, oracle.has_value());
      if (oracle) {
        EXPECT_EQ(v.cut, *oracle);
      }
    } else {
      EXPECT_TRUE(v.detected);
      EXPECT_EQ(v.cut, ones);
    }
  }
}

TEST(ServeStream, WindowOneClientPumpingOncePerReplyReachesDone) {
  // A poll(2)-driven client pumps once per readable wakeup. With window 1
  // every frame waits for the ACK of the one before it, so the pump that
  // reads an ACK must also send the frame that ACK released: the server
  // has nothing left to answer, so no further wakeup would come.
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 3;
  spec.events_per_process = 8;
  spec.seed = 7;
  spec.ensure_detectable = true;
  const auto comp = workload::make_random(spec);

  ReplayOptions opts = all_algo_options();
  opts.client.window = 1;
  auto [client_end, server_end] = make_pipe();
  std::int64_t replies = 0;
  Session session(opts.serve, [&](std::vector<std::uint8_t> bytes) {
    ++replies;
    server_end->send(bytes);
  });
  StreamClient client(*client_end, opts.client);
  enqueue_replay(client, comp, opts);

  client.pump(/*block=*/false);  // the connection became writable
  for (int wakeup = 0; !client.done(); ++wakeup) {
    ASSERT_LT(wakeup, 100'000);
    const std::int64_t before = replies;
    while (std::optional<std::vector<std::uint8_t>> raw =
               server_end->receive(/*block=*/false))
      session.on_frame(*raw);
    session.end_batch();
    ASSERT_GT(replies, before)
        << "client stalled after " << wakeup
        << " wakeups: the server got nothing to answer";
    client.pump(/*block=*/false);  // one readable wakeup per server reply
  }
  ReplayResult r;
  r.verdicts = client.verdicts();
  expect_verdicts_match_oracle(comp, r);
}

TEST(ServeStream, TcpLoopbackRoundTrip) {
  std::unique_ptr<TcpListener> listener;
  try {
    listener = std::make_unique<TcpListener>(0);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "loopback bind unavailable: " << e.what();
  }

  // One loop thread serving exactly one connection; the report hands the
  // finished connection's result back to the test.
  ConnectionResult server_result;
  EventLoopOptions loop_opts;
  loop_opts.loop_threads = 1;
  EventLoopServer loop(*listener, loop_opts,
                       [&](std::int64_t, const ConnectionResult& result) {
                         server_result = result;
                       });
  std::thread server([&] { loop.run(/*once=*/1); });

  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 3;
  spec.events_per_process = 12;
  spec.seed = 83;
  spec.ensure_detectable = true;
  const auto comp = workload::make_random(spec);

  const auto transport = tcp_connect("127.0.0.1", listener->port());
  const ReplayResult r =
      replay_stream_over(comp, all_algo_options(), *transport);
  server.join();

  EXPECT_TRUE(server_result.clean) << server_result.error;
  expect_verdicts_match_oracle(comp, r);
  // The client saw exactly the stats the server computed.
  EXPECT_EQ(r.stats.values(), server_result.stats.values());
}

}  // namespace
}  // namespace wcp::serve

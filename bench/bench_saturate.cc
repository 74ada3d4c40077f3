// E21 — many-client saturation of the epoll streaming daemon.
//
// Opens C concurrent TCP connections (all established before any stream
// starts) against an in-process EventLoopServer and replays one recorded
// computation per client through the full wire path, pumped by a small
// fixed pool of client threads — the server side multiplexes everything
// on its epoll loops, so C is bounded by fds, not thread stacks. Claims:
//
//   - Zero dropped or garbled frames at saturation: every client's
//     verdicts are identical to the offline oracle for its trace
//     (`verdict_mismatches` — CI gates this at 0) and every stream
//     completes (`incomplete` = 0).
//   - Tail latency stays bounded: per-client time from first frame sent
//     to STATS received, reported as p50/p99 (`p50_ms`, `p99_ms`).
//   - Aggregate throughput (`events_per_sec`, snapshots applied across
//     all clients per second of wall clock) is the capacity headline.
//   - `acks_per_snapshot` (ACK frames over snapshots, from the servers'
//     STATS) shows how well the loop batches its ACKs; recorded, not
//     gated. `cores` names the parallelism the row ran with.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/event_loop.h"
#include "serve/replay.h"
#include "serve/tcp.h"

namespace wcp::bench {
namespace {

using Clock = std::chrono::steady_clock;

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct SaturateResult {
  std::vector<double> latencies_ms;  // per completed client
  std::int64_t snapshots = 0;
  std::int64_t acks = 0;
  std::int64_t verdict_mismatches = 0;
  std::int64_t incomplete = 0;
  double seconds = 0;
};

SaturateResult run_saturation(const Computation& comp,
                              const serve::ReplayOptions& opts,
                              std::size_t num_clients,
                              std::size_t pump_threads) {
  serve::TcpListener listener(0);
  serve::EventLoopServer server(listener, serve::EventLoopOptions{}, {});
  std::thread server_thread(
      [&] { server.run(static_cast<std::int64_t>(num_clients)); });

  // Establish every connection up front: the daemon holds num_clients
  // concurrently-open sessions before the first snapshot flows.
  struct ClientState {
    std::unique_ptr<serve::TcpTransport> transport;
    std::unique_ptr<serve::StreamClient> client;
    Clock::time_point start;
    double latency_ms = 0;
    bool finished = false;
  };
  std::vector<ClientState> clients(num_clients);
  for (ClientState& c : clients) {
    c.transport = serve::tcp_connect("127.0.0.1", listener.port());
    c.client = std::make_unique<serve::StreamClient>(*c.transport,
                                                     opts.client);
  }

  // Pump all streams concurrently from a small shard-per-thread pool;
  // TCP is reliable, so a quiet round just waits for the server.
  const auto t0 = Clock::now();
  std::vector<std::thread> pumps;
  const std::size_t shard =
      (num_clients + pump_threads - 1) / pump_threads;
  for (std::size_t p = 0; p < pump_threads; ++p) {
    const std::size_t lo = p * shard;
    const std::size_t hi = std::min(num_clients, lo + shard);
    if (lo >= hi) break;
    pumps.emplace_back([&, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        clients[i].start = Clock::now();
        serve::enqueue_replay(*clients[i].client, comp, opts);
      }
      std::size_t open = hi - lo;
      while (open > 0) {
        bool progressed = false;
        for (std::size_t i = lo; i < hi; ++i) {
          ClientState& c = clients[i];
          if (c.finished) continue;
          try {
            progressed |= c.client->pump(/*block=*/false);
            if (c.client->done()) {
              c.latency_ms = std::chrono::duration<double, std::milli>(
                                 Clock::now() - c.start)
                                 .count();
              c.finished = true;
              --open;
            } else if (c.transport->closed()) {
              c.finished = true;  // incomplete; counted below
              --open;
            }
          } catch (const std::exception&) {
            c.finished = true;  // garbled stream; counted below
            --open;
          }
        }
        if (!progressed)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  for (std::thread& t : pumps) t.join();
  server_thread.join();

  SaturateResult out;
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::optional<std::vector<StateIndex>> oracle = comp.first_wcp_cut();
  for (ClientState& c : clients) {
    if (!c.client->done()) {
      ++out.incomplete;
      continue;
    }
    out.latencies_ms.push_back(c.latency_ms);
    out.snapshots += c.client->server_stats().snapshots_in;
    out.acks += c.client->server_stats().acks_sent;
    // Byte-identical to offline: same number of verdicts, same detection
    // bit, same minimal cut on every subscription.
    if (c.client->verdicts().size() != opts.subs.size()) {
      ++out.verdict_mismatches;
      continue;
    }
    for (const serve::VerdictBody& v : c.client->verdicts()) {
      if (v.truncated || v.detected != oracle.has_value() ||
          (v.detected && v.cut != *oracle))
        ++out.verdict_mismatches;
    }
  }
  std::sort(out.latencies_ms.begin(), out.latencies_ms.end());
  return out;
}

void BM_Serve_Saturate(benchmark::State& state) {
  const auto num_clients = static_cast<std::size_t>(state.range(0));
  const std::size_t N = 6, n = 3;
  const std::int64_t events = 12;
  const std::uint64_t seed = 21;
  const auto& comp = cached_random(N, n, events, seed,
                                   /*pred_prob=*/0.25,
                                   /*ensure_detectable=*/true);

  serve::ReplayOptions opts;
  opts.serve.gc_every = 16;
  for (const serve::StreamAlgo algo :
       {serve::StreamAlgo::kToken, serve::StreamAlgo::kChecker,
        serve::StreamAlgo::kSlicer})
    opts.subs.push_back({algo, 0, -1});

  SaturateResult r;
  for (auto _ : state) {
    r = run_saturation(comp, opts, num_clients, /*pump_threads=*/4);
    benchmark::DoNotOptimize(r.snapshots);
  }

  const double events_per_sec =
      r.seconds > 0 ? static_cast<double>(r.snapshots) / r.seconds : 0;
  const double p50 = percentile(r.latencies_ms, 0.50);
  const double p99 = percentile(r.latencies_ms, 0.99);
  const double acks_per_snapshot =
      r.snapshots > 0 ? static_cast<double>(r.acks) /
                            static_cast<double>(r.snapshots)
                      : 0;
  const auto cores =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());

  state.counters["clients"] = static_cast<double>(num_clients);
  state.counters["events_per_sec"] = events_per_sec;
  state.counters["p50_ms"] = p50;
  state.counters["p99_ms"] = p99;
  state.counters["verdict_mismatches"] =
      static_cast<double>(r.verdict_mismatches);
  state.counters["incomplete"] = static_cast<double>(r.incomplete);
  state.counters["acks_per_snapshot"] = acks_per_snapshot;

  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(N);
  rp.n = static_cast<std::int64_t>(n);
  rp.m = comp.max_messages_per_process();
  rp.seed = seed;
  // Distinct bench name per client count: summary records are keyed on
  // (bench, N, n, m, seed), which the sweep parameter is not part of.
  std::ostringstream bench_name;
  bench_name << "E21_saturate_c" << num_clients;
  report_run(state, bench_name.str(), rp,
             {{"clients", static_cast<std::int64_t>(num_clients)},
              {"snapshots", r.snapshots},
              {"events_per_sec", events_per_sec},
              {"p50_ms", p50},
              {"p99_ms", p99},
              {"wall_seconds", r.seconds},
              {"verdict_mismatches", r.verdict_mismatches},
              {"incomplete", r.incomplete},
              {"acks_per_snapshot", acks_per_snapshot},
              {"cores", cores}},
             std::nullopt, std::nullopt);
}
BENCHMARK(BM_Serve_Saturate)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wcp::bench

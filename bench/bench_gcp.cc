// E12 (extension) — Generalized Conjunctive Predicates: cost of online
// centralized termination detection ((∀ passive) ∧ (∀ channels empty),
// reference [6]) as the system grows.
//
// Counters:
//   snapshots          local snapshots streamed to the checker
//   snapshot_bits      includes the 2N-word channel counters per snapshot
//   checker_work       comparisons and channel-predicate evaluations, plus
//                      N units per snapshot received
//   work_per_snapshot  checker work normalized by input size
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "detect/centralized.h"
#include "workload/termination_workload.h"

namespace wcp::bench {
namespace {

void BM_GcpTermination(benchmark::State& state) {
  const std::size_t N = static_cast<std::size_t>(state.range(0));
  workload::TerminationSpec spec;
  spec.num_processes = N;
  spec.initial_work = static_cast<std::int64_t>(N);
  spec.spawn_prob = 0.45;
  spec.max_messages = 40 * static_cast<std::int64_t>(N);
  spec.seed = 29 + N;
  const auto t = workload::make_termination(spec);
  const auto channels = detect::ChannelPredicate::all_channels_empty(N);

  detect::RunOptions opts;
  opts.seed = 1;
  opts.latency = sim::LatencyModel::uniform(1, 4);

  detect::DetectionResult last;
  for (auto _ : state) {
    last = detect::run_gcp_centralized(t.computation, channels, opts);
    benchmark::DoNotOptimize(last.detected);
  }

  const double snaps = static_cast<double>(
      last.app_metrics.total_messages(MsgKind::kSnapshot));
  state.counters["N"] = static_cast<double>(N);
  state.counters["work_msgs"] = static_cast<double>(t.work_messages);
  state.counters["detected"] = last.detected ? 1 : 0;
  state.counters["snapshots"] = snaps;
  state.counters["snapshot_bits"] = static_cast<double>(
      last.app_metrics.total_bits(MsgKind::kSnapshot));
  state.counters["checker_work"] =
      static_cast<double>(last.monitor_metrics.total_work());
  state.counters["work_per_snapshot"] =
      snaps > 0
          ? static_cast<double>(last.monitor_metrics.total_work()) / snaps
          : 0;

  // ratio = checker work per snapshot, normalized by N (should stay ~flat:
  // each head evaluation touches N-1 peers' channel predicates).
  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(N);
  rp.n = static_cast<std::int64_t>(N);
  rp.m = static_cast<std::int64_t>(snaps);
  rp.seed = 29 + N;
  const double bound = snaps * static_cast<double>(N);
  report_run(state, "E12_gcp", rp, last, bound,
             bound > 0 ? std::optional<double>(
                             static_cast<double>(
                                 last.monitor_metrics.total_work()) /
                             bound)
                       : std::nullopt);
}
BENCHMARK(BM_GcpTermination)->Arg(3)->Arg(5)->Arg(8)->Arg(12)->Arg(16);

}  // namespace
}  // namespace wcp::bench

// E14 — large-scale work measurement using the offline executions (no
// simulator overhead), far beyond what packet-level simulation reaches in
// bench time: N up to 256 processes, thousands of states per process.
// Confirms the E1/E4 normalized-cost flatness at scale. The BENCH_summary.json
// rows carry work counters only: their metrics.result.sim.wall_ms reads 0
// because these runs have no simulator clock. Wall-clock times for the two
// algorithms appear only in google-benchmark's console output.
#include "bench_common.h"
#include "detect/offline.h"

namespace wcp::bench {
namespace {

void BM_Offline_TokenVc_Scale(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::int64_t rounds = state.range(1);
  const auto& comp = cached_worstcase(n, rounds, /*seed=*/3);
  double m = 0;
  for (ProcessId p : comp.predicate_processes())
    m = std::max(m, static_cast<double>(comp.events(p).size()));

  detect::DetectionResult r;
  for (auto _ : state) {
    r = detect::detect_token_vc_offline(comp);
    benchmark::DoNotOptimize(r.detected);
  }
  const double nd = static_cast<double>(n);
  state.counters["n"] = nd;
  state.counters["m"] = m;
  state.counters["total_work"] =
      static_cast<double>(r.monitor_metrics.total_work());
  state.counters["work_per_n2m"] =
      static_cast<double>(r.monitor_metrics.total_work()) / (nd * nd * m);
  state.counters["maxwork_per_nm"] =
      static_cast<double>(r.monitor_metrics.max_work_per_process()) /
      (nd * m);

  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(comp.num_processes());
  rp.n = static_cast<std::int64_t>(n);
  rp.m = static_cast<std::int64_t>(m);
  rp.seed = 3;
  const double bound = nd * nd * m;
  report_run(state, "E14_offline_token_vc", rp, r, bound,
             static_cast<double>(r.monitor_metrics.total_work()) / bound);
}
BENCHMARK(BM_Offline_TokenVc_Scale)
    ->Args({16, 40})
    ->Args({32, 40})
    ->Args({64, 40})
    ->Args({128, 20})
    ->Args({16, 320})
    ->Args({32, 160});

void BM_Offline_DirectDep_Scale(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  const std::int64_t rounds = state.range(1);
  const auto& comp = cached_worstcase(clients, rounds, /*seed=*/3);
  const double m = static_cast<double>(comp.max_messages_per_process());
  const double Nd = static_cast<double>(comp.num_processes());

  detect::DetectionResult r;
  for (auto _ : state) {
    r = detect::detect_direct_dep_offline(comp);
    benchmark::DoNotOptimize(r.detected);
  }
  state.counters["N"] = Nd;
  state.counters["m"] = m;
  state.counters["total_work"] =
      static_cast<double>(r.monitor_metrics.total_work());
  state.counters["work_per_Nm"] =
      static_cast<double>(r.monitor_metrics.total_work()) / (Nd * m);
  state.counters["maxwork_per_m"] =
      static_cast<double>(r.monitor_metrics.max_work_per_process()) / m;

  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(comp.num_processes());
  rp.n = static_cast<std::int64_t>(clients);
  rp.m = static_cast<std::int64_t>(m);
  rp.seed = 3;
  const double bound = Nd * m;
  report_run(state, "E14_offline_direct_dep", rp, r, bound,
             static_cast<double>(r.monitor_metrics.total_work()) / bound);
}
BENCHMARK(BM_Offline_DirectDep_Scale)
    ->Args({16, 40})
    ->Args({64, 40})
    ->Args({255, 20})
    ->Args({16, 320});

}  // namespace
}  // namespace wcp::bench

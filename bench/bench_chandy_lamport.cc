// E13 (extension) — stable-predicate baseline vs online detection.
// Chandy-Lamport snapshot rounds detect termination only at the first
// snapshot AFTER it became true; the online GCP checker pinpoints the exact
// cut. Sweeps the snapshot period: detection lag grows with the period
// while the online detector is period-free; message overhead of repeated
// rounds is ~N^2 markers per round.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "detect/chandy_lamport.h"
#include "detect/centralized.h"
#include "workload/termination_workload.h"

namespace wcp::bench {
namespace {

void BM_ClVsGcp_Termination(benchmark::State& state) {
  const std::size_t N = 6;
  const SimTime period = state.range(0);
  workload::TerminationSpec spec;
  spec.num_processes = N;
  spec.initial_work = 6;
  spec.spawn_prob = 0.45;
  spec.seed = 77;
  const auto t = workload::make_termination(spec);
  const auto channels = detect::ChannelPredicate::all_channels_empty(N);

  detect::RunOptions opts;
  opts.seed = 2;
  opts.latency = sim::LatencyModel::uniform(1, 4);

  detect::ClResult cl_result;
  detect::DetectionResult gcp_result;
  for (auto _ : state) {
    detect::ClOptions cl;
    cl.first_round_at = 2;
    cl.inter_round_delay = period;
    cl.max_rounds = 10'000;
    cl_result = detect::run_chandy_lamport(t.computation, opts, cl);
    gcp_result = detect::run_gcp_centralized(t.computation, channels, opts);
    benchmark::DoNotOptimize(cl_result.detected);
  }
  if (cl_result.truncated || gcp_result.truncated) {
    state.SkipWithError("a run hit its event budget");
    return;
  }

  state.counters["period"] = static_cast<double>(period);
  state.counters["cl_detect_time"] =
      static_cast<double>(cl_result.detect_time);
  state.counters["gcp_detect_time"] =
      static_cast<double>(gcp_result.detect_time);
  state.counters["cl_rounds"] =
      static_cast<double>(cl_result.snapshots.size());
  state.counters["cl_control_msgs"] = static_cast<double>(
      cl_result.app_metrics.total_messages(MsgKind::kControl));
  state.counters["gcp_snapshots"] = static_cast<double>(
      gcp_result.app_metrics.total_messages(MsgKind::kSnapshot));
  state.counters["lag_cl_over_gcp"] =
      gcp_result.detect_time > 0
          ? static_cast<double>(cl_result.detect_time) /
                static_cast<double>(gcp_result.detect_time)
          : 0;

  // ratio = CL detection lag over the online GCP checker on the same run;
  // the snapshot period rides in the bench id (N is fixed).
  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(N);
  rp.n = static_cast<std::int64_t>(N);
  rp.m = static_cast<std::int64_t>(period);
  rp.seed = 77;
  report_run(
      state, "E13_chandy_lamport/period=" + std::to_string(period), rp,
      {{"cl_detect_time", static_cast<double>(cl_result.detect_time)},
       {"gcp_detect_time", static_cast<double>(gcp_result.detect_time)},
       {"cl_rounds", static_cast<double>(cl_result.snapshots.size())},
       {"cl_control_msgs",
        static_cast<double>(
            cl_result.app_metrics.total_messages(MsgKind::kControl))}},
      static_cast<double>(gcp_result.detect_time),
      gcp_result.detect_time > 0
          ? std::optional<double>(static_cast<double>(cl_result.detect_time) /
                                  static_cast<double>(gcp_result.detect_time))
          : std::nullopt);
}
BENCHMARK(BM_ClVsGcp_Termination)->Arg(5)->Arg(20)->Arg(80)->Arg(320);

}  // namespace
}  // namespace wcp::bench

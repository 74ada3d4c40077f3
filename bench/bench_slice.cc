// E15 — computation slicing (Mittal & Garg): the slice restricts detection
// to the lattice of *satisfying* cuts, so on workloads where the
// Cooper-Marzullo baseline drowns in non-satisfying cuts (the E10 blowup
// shape) the sliced detectors stay polynomial.
//
// Workload: the E10 independent workload — n processes with no
// cross-causality and the predicate true only in the last states. The full
// lattice has states^n cuts; the slice has n(states-1)+... candidate
// states, period.
//
// Counters:
//   lattice_cuts          cuts the possibly() baseline explored
//   sliced_cuts           candidate states the sliced possibly() examined
//   possibly_prune        lattice_cuts / sliced_cuts
//   definitely_cuts       cuts the definitely() baseline explored
//   sliced_def_cuts       handoff probes of the sliced definitely()
//   definitely_prune      definitely_cuts / sliced_def_cuts
//   slice_groups/edges    size of the slice itself

#include "bench_common.h"
#include "detect/lattice.h"
#include "detect/lattice_online.h"
#include "detect/sliced.h"
#include "slice/slice.h"

namespace wcp::bench {
namespace {

Computation independent_workload(std::size_t n, std::int64_t states) {
  ComputationBuilder b(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::int64_t k = 1; k < states; ++k)
      b.send(ProcessId(static_cast<int>(p)),
             ProcessId(static_cast<int>((p + 1) % n)));  // never delivered
  for (std::size_t p = 0; p < n; ++p)
    b.mark_pred(ProcessId(static_cast<int>(p)), true);
  return b.build();
}

void BM_Slice_Blowup(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::int64_t states = state.range(1);
  const auto comp = independent_workload(n, states);

  detect::LatticeResult lat, sliced;
  detect::DefinitelyResult defb, defs;
  slice::SliceBuildCounters ctr;
  slice::Slice sl;
  for (auto _ : state) {
    lat = detect::detect_lattice(comp, /*max_cuts=*/50'000'000);
    sliced = detect::detect_lattice_sliced(comp);
    defb = detect::detect_definitely(comp, /*max_cuts=*/50'000'000);
    defs = detect::detect_definitely_sliced(comp);
    ctr = {};
    sl = slice::Slice::build(comp, &ctr);
    benchmark::DoNotOptimize(sliced.detected);
  }
  const auto cc = sl.num_cuts();

  const double lc = static_cast<double>(lat.cuts_explored);
  const double sc = static_cast<double>(sliced.cuts_explored);
  const double dc = static_cast<double>(defb.cuts_explored);
  const double sdc = static_cast<double>(defs.cuts_explored);
  state.counters["n"] = static_cast<double>(n);
  state.counters["states_per_proc"] = static_cast<double>(states);
  state.counters["lattice_cuts"] = lc;
  state.counters["sliced_cuts"] = sc;
  state.counters["possibly_prune"] = lc / sc;
  state.counters["definitely_cuts"] = dc;
  state.counters["sliced_def_cuts"] = sdc;
  state.counters["definitely_prune"] = dc / sdc;
  state.counters["slice_groups"] = static_cast<double>(sl.num_groups());
  state.counters["slice_edges"] = static_cast<double>(sl.num_edges());

  // bound = states^n, the lattice the baseline must explore; ratio is the
  // sliced cost against it — it should collapse toward 0 as n grows.
  // Saturating uint64 keeps the bound exact where std::pow misrounds.
  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(n);
  rp.n = static_cast<std::int64_t>(n);
  rp.m = states;
  const std::uint64_t bound =
      saturating_pow(static_cast<std::uint64_t>(states), n);
  report_run(state, "E15_slice_blowup", rp,
             {{"lattice_cuts", lat.cuts_explored},
              {"sliced_cuts", sliced.cuts_explored},
              {"possibly_prune", lc / sc},
              {"definitely_cuts", defb.cuts_explored},
              {"sliced_def_cuts", defs.cuts_explored},
              {"definitely_prune", dc / sdc},
              {"slice_groups", sl.num_groups()},
              {"slice_edges", sl.num_edges()},
              {"slice_cuts", cc.count}},
             static_cast<double>(bound), sc / static_cast<double>(bound));
}
BENCHMARK(BM_Slice_Blowup)
    ->Args({3, 10})
    ->Args({4, 10})
    ->Args({5, 10})
    ->Args({5, 20})
    ->Args({6, 10})
    ->Args({4, 40});

// Online slicer vs online lattice checker on general random workloads: both
// detect the same cut; the slicer's work is the n^2 m fixpoint instead of
// lattice exploration.
void BM_Slice_Online(benchmark::State& state) {
  const std::size_t N = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto& comp = cached_random(N, n, /*events=*/30, /*seed=*/17,
                                   /*pred_prob=*/0.3);

  detect::SliceOnlineResult r;
  detect::LatticeOnlineResult base;
  for (auto _ : state) {
    r = detect::run_slice_online(comp, default_opts());
    base = detect::run_lattice_online(comp, default_opts(), 1'000'000);
    benchmark::DoNotOptimize(r.detected);
  }
  if (r.truncated) {
    state.SkipWithError("the online slicer hit its event budget");
    return;
  }

  const double base_cuts = static_cast<double>(base.cuts_explored);
  state.counters["N"] = static_cast<double>(N);
  state.counters["n"] = static_cast<double>(n);
  state.counters["jil_advances"] = static_cast<double>(r.jil_advances);
  state.counters["lattice_cuts"] = base_cuts;
  state.counters["slice_cuts"] = static_cast<double>(r.slice_cuts);

  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(N);
  rp.n = static_cast<std::int64_t>(n);
  rp.m = comp.max_messages_per_process();
  rp.seed = 17;
  auto metrics = detect::slice_report_metrics(r);
  metrics.emplace_back("lattice_cuts_explored", base.cuts_explored);
  metrics.emplace_back("lattice_max_frontier", base.max_frontier);
  metrics.emplace_back("monitor_work", r.monitor_metrics.total_work());
  report_run(state, "E15_slice_online", rp, metrics, std::nullopt,
             std::nullopt);
}
BENCHMARK(BM_Slice_Online)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({24, 12});

}  // namespace
}  // namespace wcp::bench

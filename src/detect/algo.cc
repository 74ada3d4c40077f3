#include "detect/algo.h"

#include <array>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "detect/centralized.h"
#include "detect/direct_dep.h"
#include "detect/lattice.h"
#include "detect/lattice_online.h"
#include "detect/multi_token.h"
#include "detect/sliced.h"
#include "detect/token_vc.h"

namespace wcp::detect {

namespace {

// The paper's work bounds: O(n^2 m) for the vector-clock family (§3.4),
// O(Nm) for direct dependence (§4.4).
double bound_n2m(const ReportParams& p) {
  const double n = static_cast<double>(p.n);
  return n * n * static_cast<double>(p.m);
}

double bound_Nm(const ReportParams& p) {
  return static_cast<double>(p.N) * static_cast<double>(p.m);
}

AlgoRun simulated(DetectionResult r) {
  AlgoRun run;
  run.verdict = r.detected;
  run.truncated = r.truncated;
  run.cut = r.cut;
  run.cost = r.monitor_metrics.total_work();
  run.sim = std::move(r);
  return run;
}

template <class R>
AlgoRun possibly(const R& r) {
  AlgoRun run;
  run.verdict = r.detected;
  run.truncated = r.truncated;
  run.cut = r.cut;
  run.cost = r.cuts_explored;
  run.max_frontier = r.max_frontier;
  if constexpr (std::is_same_v<R, LatticeResult>) {
    run.witness_len = static_cast<std::int64_t>(r.witness_path.size());
    run.trace_store = r.trace_store;
  }
  return run;
}

AlgoRun definitely(const DefinitelyResult& r) {
  AlgoRun run;
  run.verdict = r.definitely;
  run.truncated = r.truncated;
  run.cut = r.witness;
  run.cost = r.cuts_explored;
  run.witness_len = static_cast<std::int64_t>(r.witness_path.size());
  run.trace_store = r.trace_store;
  return run;
}

AlgoRun direct_dep(const Computation& c, const AlgoOptions& o, bool par) {
  DdRunOptions dd;
  dd.parallel = par;
  return simulated(run_direct_dep(c, o.run, dd));
}

using Opts = AlgoOptions;

constexpr std::array<AlgoEntry, 11> kAlgos = {{
    {"token", AlgoFamily::kSimulated, bound_n2m, true, true,
     [](const Computation& c, const Opts& o) {
       return simulated(run_token_vc(c, o.run));
     }},
    {"multi", AlgoFamily::kSimulated, bound_n2m, true, true,
     [](const Computation& c, const Opts& o) {
       MultiTokenOptions mt;
       mt.num_groups = o.groups;
       return simulated(run_multi_token(c, o.run, mt));
     }},
    {"dd", AlgoFamily::kSimulated, bound_Nm, true, true,
     [](const Computation& c, const Opts& o) {
       return direct_dep(c, o, false);
     }},
    {"dd-par", AlgoFamily::kSimulated, bound_Nm, true, true,
     [](const Computation& c, const Opts& o) {
       return direct_dep(c, o, true);
     }},
    {"checker", AlgoFamily::kSimulated, bound_n2m, true, false,
     [](const Computation& c, const Opts& o) {
       return simulated(run_centralized(c, o.run));
     }},
    {"lattice", AlgoFamily::kPossibly, nullptr, false, false,
     [](const Computation& c, const Opts& o) {
       return possibly(detect_lattice(c, o.max_cuts));
     }},
    {"lattice-online", AlgoFamily::kPossibly, nullptr, true, false,
     [](const Computation& c, const Opts& o) {
       return possibly(run_lattice_online(c, o.run, o.max_cuts));
     }},
    {"lattice-sliced", AlgoFamily::kPossibly, nullptr, false, false,
     [](const Computation& c, const Opts&) {
       return possibly(detect_lattice_sliced(c));
     }},
    {"definitely", AlgoFamily::kDefinitely, nullptr, false, false,
     [](const Computation& c, const Opts& o) {
       return definitely(detect_definitely(c, o.max_cuts));
     }},
    {"definitely-sliced", AlgoFamily::kDefinitely, nullptr, false, false,
     [](const Computation& c, const Opts& o) {
       return definitely(detect_definitely_sliced(c, o.max_cuts));
     }},
    {"oracle", AlgoFamily::kOracle, nullptr, false, false,
     [](const Computation& c, const Opts&) {
       AlgoRun run;
       if (const auto cut = c.first_wcp_cut()) {
         run.verdict = true;
         run.cut = *cut;
       }
       return run;
     }},
}};

}  // namespace

void AlgoRun::write_report(json::Writer& w, std::string_view bench,
                           bool include_wall_clock) const {
  if (sim) {
    std::optional<double> ratio;
    if (bound) ratio = static_cast<double>(cost) / *bound;
    write_run_report(w, bench, params, *sim, bound, ratio,
                     include_wall_clock);
    return;
  }
  std::vector<std::pair<std::string, MetricValue>> m;
  const int found = verdict ? 1 : 0;
  switch (algo->family) {
    case AlgoFamily::kPossibly:
      m = {{"detected", found},
           {"cuts_explored", cost},
           {"max_frontier", max_frontier},
           {"truncated", truncated ? 1 : 0},
           {"witness_len", witness_len}};
      break;
    case AlgoFamily::kDefinitely: {
      std::int64_t witness_level = 0;
      for (const StateIndex k : cut) witness_level += k;
      m = {{"definitely", found},
           {"cuts_explored", cost},
           {"truncated", truncated ? 1 : 0},
           {"witness_found", cut.empty() ? 0 : 1},
           {"witness_level", witness_level},
           {"witness_len", witness_len}};
      break;
    }
    case AlgoFamily::kOracle:
    case AlgoFamily::kSimulated:
      m = {{"detected", found}};
      break;
  }
  if (trace_store.materialized()) {
    m.emplace_back("store_peak_bytes", trace_store.peak_bytes);
    m.emplace_back("store_delta_ratio", trace_store.delta_ratio);
  }
  write_run_report(w, bench, params, m, std::nullopt, std::nullopt);
}

std::span<const AlgoEntry> algos() { return kAlgos; }

const AlgoEntry* find_algo(std::string_view name) {
  for (const AlgoEntry& e : kAlgos)
    if (e.name == name) return &e;
  return nullptr;
}

const AlgoEntry& algo(std::string_view name) {
  const AlgoEntry* e = find_algo(name);
  WCP_REQUIRE(e != nullptr, "unknown algorithm '" << name << "' (expected "
                                                  << algo_names("|") << ")");
  return *e;
}

std::string algo_names(std::string_view sep) {
  std::string out;
  for (const AlgoEntry& e : kAlgos) {
    if (!out.empty()) out += sep;
    out += e.name;
  }
  return out;
}

AlgoRun run_algo(std::string_view name, const Computation& comp,
                 const AlgoOptions& opts) {
  const AlgoEntry& entry = algo(name);
  AlgoRun run = entry.run(comp, opts);
  run.algo = &entry;
  run.params = report_params(comp, opts.run.seed);
  // Echo the canonical (round-tripped) spec so the report pins down the
  // exact fault schedule the run used, for the runs that inject faults.
  if (entry.faults && opts.run.faults.enabled())
    run.params.faults = opts.run.faults.to_string();
  if (entry.bound)
    if (const double b = entry.bound(run.params); b > 0) run.bound = b;
  return run;
}

ReportParams report_params(const Computation& comp, std::uint64_t seed) {
  ReportParams rp;
  rp.N = static_cast<std::int64_t>(comp.num_processes());
  rp.n = static_cast<std::int64_t>(comp.predicate_processes().size());
  rp.m = comp.max_messages_per_process();
  rp.seed = seed;
  return rp;
}

}  // namespace wcp::detect

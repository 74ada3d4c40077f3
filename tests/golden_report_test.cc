// Golden simulator reports: the determinism contract pinned to fixed
// values. Every record below is run through the algorithm table
// (detect::run_algo, as `wcp_cli detect` does) on each committed example
// trace and rendered with wall clock stripped and the per-process counter
// breakdown on — DetectionResult::write_json(false, true) for the
// simulator-hosted runs, the run report for lattice-online, which has no
// DetectionResult. The two offline hosts, detect_token_vc_offline and
// detect_direct_dep_offline, are not in the algorithm table; the test
// calls them directly and renders their DetectionResult the same way, as
// the records token-offline and dd-offline. The GCP hosts (reference [6])
// are pinned on fixed workloads rather than on the example traces: the
// gcp-online records render run_gcp_centralized on the E12 (bench_gcp) and
// E13 (bench_chandy_lamport) specs, the gcp-offline records the verdict,
// process set, cut and counters of detect_gcp on the termination_detection
// example's default run, on the gcp_test random computations under each
// channel set and on hand-built cases. Each rendering must equal its
// line in tests/golden/sim_reports.golden byte for byte, so any change to a
// verdict, cut, message count, bit count, work unit, buffer peak, fault
// counter or virtual time fails here and names the record.
//
// The golden file holds one `<record>\t<json>` line per record. The test
// prints a `golden-record <record>\t<json>` line for every record that is
// missing from the file or differs from it, so the file is regenerated
// (only ever on purpose, from a tree whose reports are known good) with
//   build/tests/golden_report_test | sed -n 's/^golden-record //p' > tests/golden/sim_reports.golden
// — the shell truncates the file before the test reads it, so every record
// is missing and printed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "detect/algo.h"
#include "detect/centralized.h"
#include "detect/gcp.h"
#include "detect/offline.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"
#include "workload/termination_workload.h"

namespace wcp::detect {
namespace {

constexpr const char* kFaults = "drop=0.2,dup=0.05,seed=7,crash=m0@20+40";

struct Config {
  std::string label;  // record name prefix
  std::string algo;
  int groups = 2;     // multi only; 0 = n
  bool faults = false;
  bool halt = false;
};

std::vector<Config> configs() {
  return {
      {"token", "token"},
      {"multi/g1", "multi", 1},
      {"multi/g2", "multi", 2},
      {"multi/gn", "multi", 0},
      {"dd", "dd"},
      {"dd-par", "dd-par"},
      {"checker", "checker"},
      {"lattice-online", "lattice-online"},
      {"token/faults", "token", 2, true},
      {"multi/faults", "multi", 2, true},
      {"token/halt", "token", 2, false, true},
      {"multi/halt", "multi", 2, false, true},
      {"dd/halt", "dd", 2, false, true},
  };
}

std::string render_result(const DetectionResult& r) {
  std::ostringstream os;
  json::Writer w(os, /*indent=*/0);
  r.write_json(w, /*include_wall_clock=*/false, /*per_process=*/true);
  return os.str();
}

std::string render(const Config& c, const Computation& comp) {
  AlgoOptions o;
  o.run.seed = 1;
  o.run.halt_on_detect = c.halt;
  if (c.faults) o.run.faults = sim::FaultPlan::parse(kFaults);
  o.groups = c.groups > 0
                 ? c.groups
                 : static_cast<int>(comp.predicate_processes().size());
  const AlgoRun r = run_algo(c.algo, comp, o);
  if (r.sim) return render_result(*r.sim);
  std::ostringstream os;
  json::Writer w(os, /*indent=*/0);
  r.write_report(w, c.label, /*include_wall_clock=*/false);
  return os.str();
}

using Records = std::vector<std::pair<std::string, std::string>>;

std::string render_gcp(const GcpResult& r) {
  std::ostringstream os;
  json::Writer w(os, /*indent=*/0);
  w.begin_object().field("detected", r.detected).key("procs").begin_array();
  for (const ProcessId p : r.procs) w.value(p.value());
  w.end_array().key("cut").begin_array();
  for (const StateIndex k : r.cut) w.value(k);
  w.end_array();
  w.field("eliminations", r.eliminations);
  w.field("channel_evals", r.channel_evals).end_object();
  return os.str();
}

void add_gcp_online(Records& out) {
  RunOptions opts;
  opts.latency = sim::LatencyModel::uniform(1, 4);
  workload::TerminationSpec spec;
  spec.spawn_prob = 0.45;
  // E12: bench_gcp's BM_GcpTermination rows.
  opts.seed = 1;
  for (const std::size_t N : {3, 5, 8, 12, 16}) {
    spec.num_processes = N;
    spec.initial_work = static_cast<std::int64_t>(N);
    spec.max_messages = 40 * static_cast<std::int64_t>(N);
    spec.seed = 29 + N;
    const auto t = workload::make_termination(spec);
    std::string name = "gcp-online E12 N=";
    name.append(std::to_string(N));
    out.emplace_back(name, render_result(run_gcp_centralized(
                         t.computation,
                         ChannelPredicate::all_channels_empty(N), opts)));
  }
  // E13: bench_chandy_lamport's GCP run.
  opts.seed = 2;
  spec = {};
  spec.num_processes = 6;
  spec.initial_work = 6;
  spec.spawn_prob = 0.45;
  spec.seed = 77;
  const auto t = workload::make_termination(spec);
  out.emplace_back("gcp-online E13 N=6",
                   render_result(run_gcp_centralized(
                       t.computation, ChannelPredicate::all_channels_empty(6),
                       opts)));
}

void add_gcp_offline(Records& out) {
  using CP = ChannelPredicate;
  const ProcessId p0(0), p1(1), p2(2);
  {
    // examples/termination_detection with its default arguments.
    workload::TerminationSpec spec;
    spec.num_processes = 5;
    spec.initial_work = 4;
    spec.spawn_prob = 0.4;
    spec.seed = 21;
    const auto t = workload::make_termination(spec);
    out.emplace_back(
        "gcp-offline termination N=5",
        render_gcp(detect_gcp(t.computation, CP::all_channels_empty(5))));
  }
  // gcp_test's random computations under every channel set, plus an
  // at-least set (sender eliminations) and a 2-of-4 predicate whose
  // channel endpoints fall outside it.
  auto random_case = [&](const char* shape, std::size_t N, std::size_t n,
                         double pred, double drain, std::uint64_t seed) {
    workload::RandomSpec spec;
    spec.num_processes = N;
    spec.num_predicate = n;
    spec.events_per_process = 8;
    spec.local_pred_prob = pred;
    spec.drain_prob = drain;
    spec.seed = seed;
    const auto c = workload::make_random(spec);
    const std::pair<const char*, std::vector<CP>> sets[] = {
        {"none", {}},
        {"empty", CP::all_channels_empty(N)},
        {"mixed",
         {CP::at_most(p0, p1, 1), CP::at_most(p1, p2, 2), CP::empty(p2, p0)}},
        {"atleast", {CP::at_least(p0, p1, 1), CP::at_most(p1, p2, 1)}},
    };
    for (const auto& [set, chans] : sets) {
      std::string name = "gcp-offline ";
      name.append(shape).append(" seed=").append(std::to_string(seed));
      name.append(" ").append(set);
      out.emplace_back(name, render_gcp(detect_gcp(c, chans)));
    }
  };
  for (std::uint64_t seed = 0; seed < 15; ++seed)
    random_case("rand4", 4, 4, 0.45, 0.8, seed);
  for (std::uint64_t seed = 500; seed < 510; ++seed)
    random_case("rand3", 3, 3, 0.6, 0.6, seed);
  for (std::uint64_t seed = 0; seed < 5; ++seed)
    random_case("rand4n2", 4, 2, 0.45, 0.8, seed);
  {
    // gcp_test's false termination: all passive, work still in flight.
    ComputationBuilder b(2);
    b.mark_pred(p1, true);
    const MessageId work = b.send(p0, p1);
    b.mark_pred(p0, true);
    b.receive(work);
    const auto c = b.build();
    const CP chan[] = {CP::empty(p0, p1)};
    out.emplace_back("gcp-offline false-termination",
                     render_gcp(detect_gcp(c, chan)));
  }
}

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(WCP_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    golden[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return golden;
}

// A compact JSON record split after every ',', so two renderings of the
// same schema line up field by field.
std::vector<std::string> fields(const std::string& json) {
  std::vector<std::string> out(1);
  for (const char ch : json) {
    out.back() += ch;
    if (ch == ',') out.emplace_back();
  }
  return out;
}

std::string field_diff(const std::string& want, const std::string& got) {
  const auto a = fields(want);
  const auto b = fields(got);
  std::ostringstream os;
  int shown = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()) && shown < 12;
       ++i) {
    const std::string x = i < a.size() ? a[i] : "";
    const std::string y = i < b.size() ? b[i] : "";
    if (x == y) continue;
    ++shown;
    os << "\n  field " << i << ":\n    - " << x << "\n    + " << y;
  }
  return os.str();
}

TEST(GoldenReports, SimulatorReportsMatchCommittedGoldens) {
  const std::map<std::string, std::string> golden = load_golden();
  std::vector<std::filesystem::path> traces;
  for (const auto& e : std::filesystem::directory_iterator(WCP_EXAMPLE_TRACES))
    traces.push_back(e.path());
  std::sort(traces.begin(), traces.end());
  ASSERT_GE(traces.size(), 4u) << "committed example traces went missing";

  Records records;
  for (const auto& path : traces) {
    const auto comp = load_any_trace_file(path.string());
    const std::string file = path.filename().string();
    for (const Config& c : configs())
      records.emplace_back(c.label + " " + file, render(c, comp));
    records.emplace_back("token-offline " + file,
                         render_result(detect_token_vc_offline(comp)));
    records.emplace_back("dd-offline " + file,
                         render_result(detect_direct_dep_offline(comp)));
  }
  add_gcp_online(records);
  add_gcp_offline(records);

  for (const auto& [name, got] : records) {
      const auto it = golden.find(name);
      if (it != golden.end() && it->second == got) continue;
      std::cout << "golden-record " << name << '\t' << got << '\n';
      if (it == golden.end()) {
        ADD_FAILURE() << "golden record \"" << name << "\" is missing from "
                      << WCP_GOLDEN_FILE;
      } else {
      ADD_FAILURE() << "golden record \"" << name << "\" differs:"
                    << field_diff(it->second, got);
    }
  }
  EXPECT_EQ(golden.size(), records.size())
      << "the golden file has records this test no longer produces";
}

}  // namespace
}  // namespace wcp::detect

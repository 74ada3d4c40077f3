// Golden simulator reports: the determinism contract pinned to fixed
// values. Every record below is run through the algorithm table
// (detect::run_algo, as `wcp_cli detect` does) on each committed example
// trace and rendered with wall clock stripped and the per-process counter
// breakdown on — DetectionResult::write_json(false, true) for the
// simulator-hosted runs, the run report for lattice-online, which has no
// DetectionResult. The two offline hosts, detect_token_vc_offline and
// detect_direct_dep_offline, are not in the algorithm table; the test
// calls them directly and renders their DetectionResult the same way, as
// the records token-offline and dd-offline. Each rendering must equal its
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
#include "detect/offline.h"
#include "trace/trace_store.h"

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

  std::size_t produced = 0;
  for (const auto& path : traces) {
    const auto comp = load_any_trace_file(path.string());
    std::vector<std::pair<std::string, std::string>> records;
    for (const Config& c : configs())
      records.emplace_back(c.label, render(c, comp));
    records.emplace_back("token-offline",
                         render_result(detect_token_vc_offline(comp)));
    records.emplace_back("dd-offline",
                         render_result(detect_direct_dep_offline(comp)));
    for (const auto& [label, got] : records) {
      const std::string name = label + " " + path.filename().string();
      ++produced;
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
  }
  EXPECT_EQ(golden.size(), produced)
      << "the golden file has records this test no longer produces";
}

}  // namespace
}  // namespace wcp::detect

// Benchmark binary: sets a workload up (several times, timing each), warms
// it, runs it closed-loop for the requested time and writes everything it
// measured as JSON. run.py builds this binary, runs it and reduces the JSON
// to the reported metrics.
//
//   wcp_perfbench --workload offline|lattice|serve --seed N --seconds S
//                 --trace 0|1 --scratch DIR --out FILE
//
// --trace 0: one untraced measured phase of S seconds.
// --trace 1: the workload untraced for S/2 s, then traced for S/2 s (the
// difference is the tracing overhead), then its per-layer breakdown pass;
// then a traced pass over the other two workloads so every per-layer
// metric is measured in every traced run.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/json.h"
#include "record.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 of the pair: nearby seeds and indices give unrelated inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr int kSetups = 3;
// Op rate the measured phase's op log is sized for, several times the
// fastest workload's.
constexpr double kMaxOpsPerSecond = 4096;

using Factory = std::function<std::unique_ptr<Workload>(const Config&)>;

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> f = {
      {"offline", make_offline}, {"lattice", make_lattice},
      {"serve", make_serve}};
  return f;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scratch") a.scratch = v;
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (!factories().count(a.workload))
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (a.seconds <= 0 || a.scratch.empty() || a.out.empty())
    throw std::invalid_argument("need --seconds > 0, --scratch and --out");
  return a;
}

std::string stamp(const Args& a, std::size_t cores) {
  std::ostringstream os;
  wcp::json::Writer w(os, 0);
  w.begin_object();
  w.field("workload", std::string_view(a.workload));
  w.field("seed", a.seed);
  w.field("seconds", a.seconds);
  w.field("trace", a.trace ? 1 : 0);
  w.field("cores", static_cast<std::uint64_t>(cores));
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("compiler", PERFBENCH_COMPILER);
  w.end_object();
  return os.str();
}

// Restarts the peak-RSS count, so the reported peak covers the measured
// ops and not the oracle computations of set-up; the heap set-up freed is
// handed back first, or its pages would stay resident and count against
// the ops.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear) throw std::runtime_error("cannot reset the peak RSS count");
}

// Peak resident set of this process image in KiB. VmHWM rather than
// getrusage's ru_maxrss, which on Linux carries the pre-exec peak of the
// process that launched us (the Python wrapper) across execve.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double warmup_seconds(double seconds) { return std::min(1.0, seconds / 10); }

void run_phase(Recorder& rec, Workload& w, const std::string& name,
               bool traced, double seconds) {
  rec.begin_phase(name, traced, seconds);
  w.run(rec, seconds);
  rec.end_phase();
}

int run(const Args& a) {
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  Config cfg;
  cfg.seed = a.seed;
  cfg.scratch_dir = a.scratch;
  cfg.lanes = cores;
  std::filesystem::create_directories(a.scratch);

  Recorder rec;
  const Factory& make = factories().at(a.workload);
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // the previous set-up's teardown is not timed
    const Clock::time_point t0 = Clock::now();
    w = make(cfg);
    rec.setup_seconds(seconds_between(t0, Clock::now()));
  }
  const double s = a.seconds;
  run_phase(rec, *w, a.workload + ".warmup", false, warmup_seconds(s));
  rec.reserve_ops(static_cast<std::size_t>(s * kMaxOpsPerSecond));
  reset_peak_rss();
  if (!a.trace) {
    run_phase(rec, *w, a.workload + ".measure", false, s);
  } else {
    run_phase(rec, *w, a.workload + ".untraced", false, s / 2);
    run_phase(rec, *w, a.workload + ".traced", true, s / 2);
    w->run_breakdown(rec, s / 4);
    w.reset();
    for (const auto& [name, other] : factories()) {
      if (name == a.workload) continue;
      std::unique_ptr<Workload> o = other(cfg);
      run_phase(rec, *o, name + ".warmup", false, warmup_seconds(s) / 2);
      run_phase(rec, *o, name + ".traced", true, s / 4);
      o->run_breakdown(rec, s / 8);
    }
  }
  w.reset();

  rec.value("peak_rss_kb", peak_rss_kb());
  rec.write_json(a.out, stamp(a, cores));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wcp_perfbench: %s\n", e.what());
    return 1;
  }
}

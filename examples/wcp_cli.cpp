// wcp_cli — command-line front end for the library.
//
// Subcommands (usage() below lists every flag):
//   generate <out.trace> [--N k] [--n k] [--events k] [--pred-prob p]
//            [--seed s] [--detectable 0|1] [--binary]
//       Generate a random computation and save it as a wcp-trace text file,
//       or with --binary as a columnar wcp-tracebin file.
//   detect <in.trace> [--algo name] [--groups g] [--seed s] [--halt 0|1]
//          [--faults spec] [--json] [--verdict] [--trusted]
//       Run one detector on a trace and print the result + cost metrics.
//       The names are those of the algorithm table (detect/algo.h);
//       usage() lists them.
//   stream <in.trace> [--algos ...] [--connect host:port] [--json]
//       Replay the trace's snapshots through the streaming service, in
//       process or to a wcp_served daemon, one verdict line per algorithm.
//   slice <in.trace> [--max-cuts k] [--json]
//       Build the slice and run the sliced possibly/definitely detectors.
//   sweep <in.trace> [--algos a,b,..] [--seeds s1,s2,..] [--threads t]
//       Run every (algorithm, seed) pair, fanned out over a thread pool;
//       each row is the record `detect` renders for that name and seed.
//   info | diagram | dot <in.trace>
//       Print the trace's shape and first WCP cut, a space-time diagram, or
//       a Graphviz rendering.
//
// Every command that reads a trace sniffs the magic bytes, so text and
// binary files are interchangeable inputs. A malformed or out-of-range flag
// value, an unknown algorithm name included, a flag the command does not
// take, and --faults or --halt 1 for a detector the algorithm table does
// not mark as honouring it all exit 2 with "wcp_cli: --<flag> ..." before
// the trace loads.
//
// Example:
//   $ wcp_cli generate /tmp/run.trace --N 8 --n 4 --events 30
//   $ wcp_cli detect /tmp/run.trace --algo dd
#include <algorithm>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "common/json.h"
#include "detect/algo.h"
#include "detect/batch.h"
#include "detect/report.h"
#include "detect/sliced.h"
#include "serve/replay.h"
#include "serve/tcp.h"
#include "slice/slice.h"
#include "trace/diagram.h"
#include "trace/dot_export.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"

namespace {

using namespace wcp;

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
};

/// Flags that never take a value (so `--json in.trace` does not swallow the
/// trace path).
bool is_boolean_flag(const std::string& key) {
  return key == "json" || key == "binary" || key == "verdict" ||
         key == "trusted";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      const std::string key = s.substr(2);
      if (!is_boolean_flag(key) && i + 1 < argc) {
        a.flags[key] = argv[++i];
      } else {
        a.flags[key] = "";
      }
    } else {
      a.positional.push_back(std::move(s));
    }
  }
  return a;
}

/// Accepted range of an integer flag; a value outside it exits 2.
struct IntRange {
  std::int64_t lo, hi;
};
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr IntRange kThreads{0, 1024};  // as wcp_served --threads
constexpr IntRange kPort{1, 65535};
constexpr IntRange kSwitch{0, 1};
constexpr IntRange kProcesses{1, 4096};
constexpr IntRange kCount{0, kI64Max};
constexpr IntRange kPositive{1, kI64Max};

constexpr std::string_view kProgram = "wcp_cli";

std::int64_t flag_int(const Args& a, const std::string& key, std::int64_t def,
                      IntRange range) {
  auto it = a.flags.find(key);
  return it == a.flags.end()
             ? def
             : parse_flag_int(kProgram, key, it->second, range.lo, range.hi);
}

/// Probability-valued flag, in [0, 1].
double flag_prob(const Args& a, const std::string& key, double def) {
  auto it = a.flags.find(key);
  return it == a.flags.end()
             ? def
             : parse_flag_double(kProgram, key, it->second, 0.0, 1.0);
}

std::string flag_str(const Args& a, const std::string& key,
                     const std::string& def) {
  auto it = a.flags.find(key);
  return it == a.flags.end() ? def : it->second;
}

/// --trusted skips the O(file) semantic replay verification of binary
/// traces (structural validation always runs); the mmap fast path for
/// files we wrote ourselves.
TraceLoadOptions load_opts(const Args& a) {
  TraceLoadOptions opts;
  opts.verify_replay = !a.flags.contains("trusted");
  return opts;
}

/// An --algo/--algos value must name an entry of the algorithm table.
void require_algo(const std::string& key, const std::string& name) {
  if (detect::find_algo(name) == nullptr)
    throw FlagError(std::string(kProgram) + ": --" + key + " expects one of " +
                    detect::algo_names("|") + ", got \"" + name + "\"");
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  wcp_cli generate <out.trace> [--N k] [--n k] [--events k]\n"
      "                   [--pred-prob p] [--seed s] [--detectable 0|1]\n"
      "                   [--binary]   write wcp-tracebin instead of text\n"
      "  wcp_cli detect   <in.trace> [--algo "
      << detect::algo_names("|") << "]\n"
      << "                   [--groups g] [--seed s] [--halt 0|1] [--json]\n"
      "                   [--faults spec]   e.g. "
      "--faults drop=0.2,dup=0.05,seed=7,crash=m1@40+30\n"
      "                   [--verdict]   print only the canonical verdict "
      "line\n"
      "                   [--trusted]   skip the binary loader's replay "
      "check\n"
      "  wcp_cli stream   <in.trace> [--algos token,checker,lattice-online,"
      "slicer]\n"
      "                   [--faults spec] [--reorder p] [--gc-every k]\n"
      "                   [--window w] [--connect host:port] [--json]\n"
      "  wcp_cli slice    <in.trace> [--max-cuts k] [--json]\n"
      "  wcp_cli sweep    <in.trace> [--algos a,b,..] [--seeds s1,s2,..]\n"
      "                   [--threads t] [--json]\n"
      "                   t=0: WCP_THREADS env or hardware\n"
      "  wcp_cli info     <in.trace>\n"
      "  wcp_cli diagram  <in.trace> [--max-states k]\n"
      "  wcp_cli dot      <in.trace>\n";
  return 2;
}

void print_cut(const std::vector<StateIndex>& cut) {
  std::cout << '[';
  for (std::size_t s = 0; s < cut.size(); ++s)
    std::cout << (s ? "," : "") << cut[s];
  std::cout << ']';
}

/// The canonical algorithm-agnostic verdict line. `wcp_cli detect --verdict`
/// and `wcp_cli stream` both emit exactly this, so a byte-diff proves the
/// streamed path reproduces the offline one (CI does exactly that). A run
/// stopped by a cap or the event budget is inconclusive and says so with
/// `"truncated": true`; the field is absent when the run finished.
void print_verdict_line(bool detected, const std::vector<StateIndex>& cut,
                        bool truncated) {
  json::Writer w(std::cout);
  w.begin_object();
  w.key("schema").value("wcp-verdict/1");
  w.key("detected").value(detected);
  if (truncated) w.key("truncated").value(true);
  w.key("cut").begin_array();
  if (detected)
    for (const StateIndex k : cut) w.value(k);
  w.end_array();
  w.end_object();
  std::cout << "\n";
}

int cmd_generate(const Args& a) {
  if (a.positional.size() < 2) return usage();
  workload::RandomSpec spec;
  spec.num_processes =
      static_cast<std::size_t>(flag_int(a, "N", 8, kProcesses));
  spec.num_predicate =
      static_cast<std::size_t>(flag_int(a, "n", 4, kProcesses));
  spec.events_per_process = flag_int(a, "events", 20, kCount);
  spec.local_pred_prob = flag_prob(a, "pred-prob", 0.3);
  spec.ensure_detectable = flag_int(a, "detectable", 0, kSwitch) != 0;
  spec.seed = static_cast<std::uint64_t>(flag_int(a, "seed", 42, kCount));
  const auto comp = workload::make_random(spec);
  if (a.flags.contains("binary")) {
    save_tracebin_file(a.positional[1], comp);
    const auto ts = comp.trace_store_stats();
    std::cout << "wrote " << a.positional[1] << " (wcp-tracebin 1): " << comp
              << "\n  clocks=" << ts.clocks_interned
              << " delta_entries=" << ts.delta_entries
              << " delta_ratio=" << ts.delta_ratio << "\n";
  } else {
    save_trace_file(a.positional[1], comp);
    std::cout << "wrote " << a.positional[1] << ": " << comp << "\n";
  }
  return 0;
}

int cmd_info(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  std::cout << comp << "\n";
  std::cout << "m (max events/process): " << comp.max_messages_per_process()
            << "\n";
  if (const auto cut = comp.first_wcp_cut()) {
    std::cout << "first WCP cut: ";
    print_cut(*cut);
    std::cout << "\n";
  } else {
    std::cout << "the WCP never holds in this run\n";
  }
  return 0;
}

int cmd_diagram(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  DiagramOptions opts;
  opts.max_states = flag_int(a, "max-states", 0, kCount);
  opts.message_table = true;
  if (const auto cut = comp.first_wcp_cut()) {
    opts.cut_procs.assign(comp.predicate_processes().begin(),
                          comp.predicate_processes().end());
    opts.cut = *cut;
  }
  std::cout << render_diagram(comp, opts);
  return 0;
}

int cmd_dot(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  DotOptions opts;
  if (const auto cut = comp.first_wcp_cut()) {
    opts.cut_procs.assign(comp.predicate_processes().begin(),
                          comp.predicate_processes().end());
    opts.cut = *cut;
  }
  export_dot(std::cout, comp, opts);
  return 0;
}

void print_run(const detect::AlgoRun& r) {
  std::cout << r.algo->name << ": ";
  if (r.sim) {
    std::cout << *r.sim << "\n";
    if (!r.sim->frozen_cut.empty()) {
      std::cout << "  frozen at: ";
      print_cut(r.sim->frozen_cut);
      std::cout << "\n";
    }
    std::cout << "  app:     " << r.sim->app_metrics.summary() << "\n";
    std::cout << "  monitor: " << r.sim->monitor_metrics.summary() << "\n";
    return;
  }
  if (r.algo->family == detect::AlgoFamily::kDefinitely) {
    std::cout << (r.truncated ? "inconclusive"
                              : (r.verdict ? "DEFINITELY" : "not-definitely"))
              << " cuts_explored=" << r.cost
              << (r.truncated ? " (truncated)" : "");
    if (!r.cut.empty()) {
      std::cout << " witness=";
      print_cut(r.cut);
    }
    std::cout << "\n";
    return;
  }
  std::cout << (r.verdict ? "DETECTED" : "not-detected");
  if (r.verdict) {
    std::cout << " cut=";
    print_cut(r.cut);
  }
  if (r.algo->family == detect::AlgoFamily::kPossibly) {
    if (r.verdict) std::cout << " witness_len=" << r.witness_len;
    std::cout << " cuts_explored=" << r.cost
              << " max_frontier=" << r.max_frontier
              << (r.truncated ? " (truncated)" : "");
    if (r.trace_store.materialized())
      std::cout << " store_peak_bytes=" << r.trace_store.peak_bytes;
  }
  std::cout << "\n";
}

/// `--key` set for an entry that does not honour it (the algorithm table
/// says which do): a run that ignored the flag would read as if it applied.
void require_honoured(const std::string& key, bool set,
                      const std::string& algo,
                      bool detect::AlgoEntry::*honours) {
  if (!set || detect::algo(algo).*honours) return;
  std::string names;
  for (const detect::AlgoEntry& e : detect::algos()) {
    if (!(e.*honours)) continue;
    if (!names.empty()) names += '|';
    names += e.name;
  }
  throw FlagError(std::string(kProgram) + ": --" + key +
                  " does not apply to --algo " + algo + " (only to " + names +
                  ")");
}

int cmd_detect(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const std::string algo = flag_str(a, "algo", "token");
  require_algo("algo", algo);
  detect::AlgoOptions opts;
  opts.run.seed = static_cast<std::uint64_t>(flag_int(a, "seed", 1, kCount));
  opts.run.halt_on_detect = flag_int(a, "halt", 0, kSwitch) != 0;
  const std::string fault_spec = flag_str(a, "faults", "");
  if (!fault_spec.empty()) opts.run.faults = sim::FaultPlan::parse(fault_spec);
  opts.groups = static_cast<int>(flag_int(a, "groups", 2, kProcesses));
  require_honoured("faults", !fault_spec.empty(), algo,
                   &detect::AlgoEntry::faults);
  require_honoured("halt", opts.run.halt_on_detect, algo,
                   &detect::AlgoEntry::halt);

  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  const detect::AlgoRun r = detect::run_algo(algo, comp, opts);
  if (a.flags.contains("verdict")) {
    print_verdict_line(r.verdict, r.cut, r.truncated);
  } else if (a.flags.contains("json")) {
    json::Writer w(std::cout);
    r.write_report(w, "cli:" + algo);
    std::cout << "\n";
  } else {
    print_run(r);
  }
  return 0;
}

std::vector<std::string> split_list(const std::string& csv);

int cmd_stream(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  const bool as_json = a.flags.contains("json");

  serve::ReplayOptions opts;
  opts.serve.gc_every =
      static_cast<std::size_t>(flag_int(a, "gc-every", 64, kCount));
  opts.client.window =
      static_cast<std::size_t>(flag_int(a, "window", 64, kPositive));
  const std::string fault_spec = flag_str(a, "faults", "");
  if (!fault_spec.empty())
    opts.faults.plan = sim::FaultPlan::parse(fault_spec);
  opts.faults.reorder = flag_prob(a, "reorder", 0.0);

  std::vector<std::string> algos = split_list(
      flag_str(a, "algos", "token,checker,lattice-online,slicer"));
  for (const std::string& name : algos) {
    serve::ReplaySubscription sub;
    sub.algo = serve::stream_algo_from_string(name);
    opts.subs.push_back(sub);
  }

  serve::ReplayResult r;
  const std::string connect = flag_str(a, "connect", "");
  if (!connect.empty()) {
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "--connect expects host:port\n";
      return usage();
    }
    const auto port = static_cast<std::uint16_t>(parse_flag_int(
        kProgram, "connect", connect.substr(colon + 1), kPort.lo, kPort.hi));
    const auto t = serve::tcp_connect(connect.substr(0, colon), port);
    r = serve::replay_stream_over(comp, opts, *t);
  } else {
    r = serve::replay_stream(comp, opts);
  }

  if (as_json) {
    detect::ReportParams rp = detect::report_params(comp, 0);
    if (opts.faults.plan.enabled()) rp.faults = opts.faults.plan.to_string();
    std::vector<std::pair<std::string, detect::MetricValue>> metrics;
    for (const auto& [name, value] : r.stats.items())
      metrics.emplace_back(name, value);
    metrics.emplace_back("pipe_frames_sent", r.pipe.sent);
    metrics.emplace_back("pipe_frames_dropped", r.pipe.dropped);
    metrics.emplace_back("pipe_frames_duplicated", r.pipe.duplicated);
    metrics.emplace_back("pipe_frames_reordered", r.pipe.reordered);
    metrics.emplace_back("client_retransmits", r.retransmits);
    json::Writer w(std::cout);
    detect::write_run_report(w, "cli:stream", rp, metrics, std::nullopt,
                             std::nullopt);
    std::cout << "\n";
    return 0;
  }
  // One canonical verdict line per subscription, in subscription order —
  // byte-identical to `detect --verdict` on the same trace and algorithm.
  std::vector<serve::VerdictBody> by_sub = r.verdicts;
  std::sort(by_sub.begin(), by_sub.end(),
            [](const serve::VerdictBody& x, const serve::VerdictBody& y) {
              return x.sub_id < y.sub_id;
            });
  for (const serve::VerdictBody& v : by_sub)
    print_verdict_line(v.detected, v.cut, v.truncated);
  return 0;
}

int cmd_slice(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  const bool as_json = a.flags.contains("json");
  const std::int64_t max_cuts = flag_int(a, "max-cuts", 1'000'000, kCount);

  slice::SliceBuildCounters ctr;
  const auto sl = slice::Slice::build(comp, &ctr);
  const auto cc = sl.num_cuts(max_cuts);
  const auto possibly = detect::detect_lattice_sliced(comp);
  const auto definitely = detect::detect_definitely_sliced(comp, 10'000'000);

  if (as_json) {
    const detect::ReportParams rp = detect::report_params(comp, 0);
    json::Writer w(std::cout);
    detect::write_run_report(
        w, "cli:slice", rp,
        {{"possibly", possibly.detected ? 1 : 0},
         {"definitely", definitely.definitely ? 1 : 0},
         {"definitely_truncated", definitely.truncated ? 1 : 0},
         {"slice_groups", sl.num_groups()},
         {"slice_edges", sl.num_edges()},
         {"slice_cuts", cc.count},
         {"slice_cuts_saturated", cc.saturated ? 1 : 0},
         {"jil_advances", ctr.jil.advances},
         {"jil_clock_lookups", ctr.jil.clock_lookups},
         {"possibly_cuts_explored", possibly.cuts_explored},
         {"definitely_cuts_explored", definitely.cuts_explored}},
        std::nullopt, std::nullopt);
    std::cout << "\n";
    return 0;
  }

  std::cout << "slice: " << (sl.empty() ? "EMPTY" : "non-empty")
            << " groups=" << sl.num_groups() << " edges=" << sl.num_edges()
            << " satisfying_cuts=" << cc.count
            << (cc.saturated ? "+ (capped)" : "") << "\n";
  if (!sl.empty()) {
    std::cout << "  bottom: ";
    print_cut(sl.bottom());
    std::cout << "\n  top:    ";
    print_cut(sl.top());
    std::cout << "\n";
  }
  std::cout << "  possibly=" << (possibly.detected ? "yes" : "no")
            << " (cuts_explored=" << possibly.cuts_explored << ")"
            << " definitely=" << (definitely.definitely ? "yes" : "no")
            << " (cuts_explored=" << definitely.cuts_explored << ")\n";
  if (!definitely.witness.empty()) {
    std::cout << "  avoiding-observation witness: ";
    print_cut(definitely.witness);
    std::cout << "\n";
  }
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int cmd_sweep(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const bool as_json = a.flags.contains("json");
  const auto threads =
      static_cast<std::size_t>(flag_int(a, "threads", 0, kThreads));

  const auto algos =
      split_list(flag_str(a, "algos", "token,dd,lattice,lattice-sliced"));
  for (const std::string& name : algos) require_algo("algos", name);
  std::vector<std::uint64_t> seeds;
  for (const std::string& s : split_list(flag_str(a, "seeds", "1,2,3,4")))
    seeds.push_back(static_cast<std::uint64_t>(
        parse_flag_int(kProgram, "seeds", s, kCount.lo, kCount.hi)));
  if (algos.empty() || seeds.empty()) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));

  const auto rows =
      detect::run_sweep(comp, detect::cross_jobs(algos, seeds), threads);
  for (const auto& row : rows) {
    if (as_json) {
      std::cout << row.report << "\n";
      continue;
    }
    const bool is_def = detect::algo(row.algo).family ==
                        detect::AlgoFamily::kDefinitely;
    std::cout << row.algo << " seed=" << row.seed << ": "
              << (row.verdict ? (is_def ? "DEFINITELY" : "DETECTED")
                              : (is_def ? "not-definitely" : "not-detected"))
              << " cost=" << row.cost;
    if (!row.cut.empty()) {
      std::cout << " cut=";
      print_cut(row.cut);
    }
    std::cout << "\n";
  }
  return 0;
}

/// Every command with the flags it reads; any other `--key` exits 2, so a
/// mistyped or retired flag never silently falls back to a default.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::string_view flags;  // space-separated
};
constexpr Command kCommands[] = {
    {"generate", cmd_generate, "N n events pred-prob seed detectable binary"},
    {"detect", cmd_detect, "algo groups seed halt faults json verdict trusted"},
    {"stream", cmd_stream,
     "algos faults reorder gc-every window connect json trusted"},
    {"slice", cmd_slice, "max-cuts json trusted"},
    {"sweep", cmd_sweep, "algos seeds threads json trusted"},
    {"info", cmd_info, "trusted"},
    {"diagram", cmd_diagram, "max-states trusted"},
    {"dot", cmd_dot, "trusted"},
};

void require_known_flags(const Args& a, const Command& cmd) {
  for (const auto& [key, value] : a.flags) {
    bool known = false;
    std::istringstream names{std::string(cmd.flags)};
    for (std::string name; names >> name;) known = known || name == key;
    if (!known)
      throw FlagError(std::string(kProgram) + ": --" + key + " is not a " +
                      std::string(cmd.name) + " flag (it takes: " +
                      std::string(cmd.flags) + ")");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.positional.empty()) return usage();
  try {
    for (const Command& cmd : kCommands) {
      if (cmd.name != a.positional[0]) continue;
      require_known_flags(a, cmd);
      return cmd.run(a);
    }
    return usage();
  } catch (const FlagError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// `offline`: the everyday `wcp_cli detect` / `sweep` path. Each op opens
// the next file of a seeded corpus with load_any_trace_file (verified
// load) and runs a serial six-algorithm sweep over it. Half the corpus is
// text, half wcp-tracebin, and every file comes from one RandomSpec so ops
// stay close to the same size.
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "detect/batch.h"
#include "detect/lattice.h"
#include "slice/slice.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using wcp::Computation;
using wcp::StateIndex;

constexpr std::size_t kCorpusFiles = 64;

wcp::workload::RandomSpec corpus_spec(std::uint64_t seed) {
  wcp::workload::RandomSpec spec;
  spec.num_processes = 24;
  spec.num_predicate = 3;
  spec.events_per_process = 40;
  spec.local_pred_prob = 0.2;
  spec.seed = seed;
  return spec;
}

const std::vector<std::string> kAlgos = {
    "token", "multi", "dd", "checker", "lattice-sliced", "definitely-sliced"};

struct CorpusFile {
  std::string path;
  bool binary = false;
  std::uint64_t run_seed = 1;
  std::optional<std::vector<StateIndex>> first_cut;  // the oracle
  bool definitely = false;  // serial detect_definitely verdict
};

// The integer at metrics.<path> of a sweep row's wcp-run-report/1 record:
// 0 when the record has no such member, -1 when it is not JSON.
std::int64_t report_metric(const std::string& report,
                           std::initializer_list<std::string_view> path) {
  const std::optional<wcp::json::Value> doc = wcp::json::parse(report);
  if (!doc) return -1;
  const wcp::json::Value* v = doc->find("metrics");
  for (const std::string_view key : path) v = v ? v->find(key) : nullptr;
  return v ? v->integer : 0;
}

bool witness_avoids(const Computation& comp,
                    const std::vector<StateIndex>& cut) {
  const auto procs = comp.predicate_processes();
  if (cut.size() != procs.size() || !comp.is_consistent_cut(procs, cut))
    return false;
  for (std::size_t s = 0; s < procs.size(); ++s)
    if (!comp.local_pred(procs[s], cut[s])) return true;
  return false;
}

class Offline final : public Workload {
 public:
  explicit Offline(const Config& cfg) : dir_(cfg.scratch_dir + "/offline") {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (std::size_t i = 0; i < kCorpusFiles; ++i) {
      const std::uint64_t s = input_seed(cfg.seed, i);
      const Computation comp = wcp::workload::make_random(corpus_spec(s));
      CorpusFile f;
      f.binary = i % 2 == 1;
      f.path = dir_ + "/c" + std::to_string(i) +
               (f.binary ? ".tracebin" : ".trace");
      f.run_seed = s % 1000 + 1;
      if (f.binary)
        wcp::save_tracebin_file(f.path, comp);
      else
        wcp::save_trace_file(f.path, comp);
      f.first_cut = comp.first_wcp_cut();
      f.definitely = wcp::detect::detect_definitely(comp, -1, 1).definitely;
      files_.push_back(std::move(f));
    }
  }

  ~Offline() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void run(Recorder& rec, double seconds) override {
    const double end = rec.now() + seconds;
    while (rec.now() < end) {
      const CorpusFile& f = files_[next_++ % files_.size()];
      one_op(rec, f);
    }
  }

  // slice.build on its own: no sweep job calls Slice::build (the sliced
  // detectors run their fixpoints directly), so a build inside the traced
  // sweep would be work the untraced ops never do. Each op loads a corpus
  // file and its store untimed, then builds the slice and checks its bottom
  // against the oracle.
  void run_breakdown(Recorder& rec, double seconds) override {
    rec.begin_phase("offline.slice", true, seconds);
    const double end = rec.now() + seconds;
    while (rec.now() < end) {
      const CorpusFile& f = files_[next_++ % files_.size()];
      const std::int64_t op = rec.next_op();
      const double t0 = rec.now();
      bool ok = false;
      try {
        Computation comp = wcp::load_any_trace_file(f.path);
        (void)comp.trace_store();
        std::optional<wcp::slice::Slice> slice;
        {
          ScopedSpan s(rec, "slice.build", op, -1);
          slice.emplace(wcp::slice::Slice::build(comp));
        }
        ok = slice->empty() != f.first_cut.has_value() &&
             (!f.first_cut || slice->bottom() == *f.first_cut);
      } catch (const std::exception&) {
        ok = false;  // a throwing op is a failed op
      }
      rec.op_done(t0, rec.now(), ok);
    }
    rec.end_phase();
  }

 private:
  void one_op(Recorder& rec, const CorpusFile& f) {
    const std::int64_t op = rec.next_op();
    const double t0 = rec.now();
    const int root = rec.open("offline.op", op, -1);
    std::vector<wcp::detect::SweepRow> rows;
    std::optional<Computation> comp;
    bool ran = false;
    try {
      {
        ScopedSpan s(rec, f.binary ? "trace.load_bin" : "trace.load_text",
                     op, root);
        comp.emplace(wcp::load_any_trace_file(f.path));
      }
      if (rec.tracing()) {
        // Same work as the untraced sweep, split so each detector and the
        // store build get a span of their own. Only text loads build a
        // store; the binary loader hands over the one it mapped.
        if (!f.binary) {
          ScopedSpan s(rec, "trace.store_build", op, root);
          (void)comp->trace_store();
        }
        for (const std::string& algo : kAlgos) {
          std::string name = "detect." + algo;
          for (char& c : name)
            if (c == '-') c = '_';
          ScopedSpan s(rec, name, op, root);
          auto r = wcp::detect::run_sweep(
              *comp, wcp::detect::cross_jobs({algo}, {f.run_seed}), 1);
          rows.push_back(std::move(r.at(0)));
        }
      } else {
        rows = wcp::detect::run_sweep(
            *comp, wcp::detect::cross_jobs(kAlgos, {f.run_seed}), 1);
      }
      ran = true;
    } catch (const std::exception&) {
      ran = false;  // a throwing op is a failed op
    }
    rec.close(root);
    const double t1 = rec.now();
    const bool ok = ran && check(*comp, f, rows);
    rec.op_done(t0, t1, ok);
    if (ok && rec.tracing()) {
      std::int64_t events = 0;
      for (const auto& row : rows)
        events += report_metric(row.report,
                              {"result", "sim", "events_processed"});
      rec.sample("sim.events_per_op", static_cast<double>(events));
      rec.sample("trace_store.bytes_per_state",
                 static_cast<double>(comp->trace_store_stats().peak_bytes) /
                     static_cast<double>(comp->total_states()));
    }
  }

  static bool check(const Computation& comp, const CorpusFile& f,
                    const std::vector<wcp::detect::SweepRow>& rows) {
    if (rows.size() != kAlgos.size()) return false;
    for (const auto& row : rows) {
      if (report_metric(row.report, {"truncated"}) != 0) return false;
      if (row.algo == "definitely-sliced") {
        if (row.verdict != f.definitely) return false;
        if (!row.verdict && !witness_avoids(comp, row.cut)) return false;
        continue;
      }
      if (row.verdict != f.first_cut.has_value()) return false;
      if (f.first_cut && row.cut != *f.first_cut) return false;
    }
    return true;
  }

  std::string dir_;
  std::vector<CorpusFile> files_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_offline(const Config& cfg) {
  return std::make_unique<Offline>(cfg);
}

}  // namespace perfbench

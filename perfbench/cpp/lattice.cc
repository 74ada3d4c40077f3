// `lattice`: the Cooper–Marzullo baseline, the paper's O(m^n) comparison.
// Each op runs detect_lattice then detect_definitely on one of a fixed set
// of in-memory computations, on one lane. Set-up keeps only computations
// whose possibly() search visits a narrow band of cut counts, so every op
// costs about the same and the per-seed mix cannot move the medians.
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "detect/lattice.h"
#include "workload/random_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wcp::Computation;
using wcp::StateIndex;

constexpr std::size_t kComputations = 32;
// Band of cut counts a computation must fall in to be kept, for possibly()
// and for definitely() alike, so every op costs about the same and no
// seed brings an outlier into the tail.
constexpr std::int64_t kMinCuts = 6'000;
constexpr std::int64_t kMaxCuts = 8'000;
// Every set-up probes this many candidates, whatever the seed, so set-up
// time does not depend on how soon the band fills (about one in six
// candidates lands in it).
constexpr std::size_t kCandidates = 320;
// definitely() budget of the ops: far above any kept computation's
// lattice, so a truncated result is a failed op.
constexpr std::int64_t kDefinitelyCap = 10'000'000;

wcp::workload::RandomSpec lattice_spec(std::uint64_t seed) {
  wcp::workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 14;
  spec.local_pred_prob = 0.08;
  spec.seed = seed;
  return spec;
}

struct Input {
  Computation comp;
  std::optional<std::vector<StateIndex>> first_cut;  // the oracle
  wcp::detect::DefinitelyResult definitely;          // serial reference
};

class Lattice final : public Workload {
 public:
  explicit Lattice(const Config& cfg) : lanes_(cfg.lanes) {
    for (std::uint64_t i = 0; i < kCandidates; ++i) {
      Computation comp =
          wcp::workload::make_random(lattice_spec(input_seed(cfg.seed, i)));
      const auto probe = wcp::detect::detect_lattice(comp, kMaxCuts + 1, 1);
      if (probe.truncated || probe.cuts_explored < kMinCuts ||
          inputs_.size() == kComputations)
        continue;
      auto definitely =
          wcp::detect::detect_definitely(comp, kMaxCuts + 1, 1);
      if (definitely.truncated || definitely.cuts_explored < kMinCuts)
        continue;
      Input in{std::move(comp), std::nullopt, std::move(definitely)};
      in.first_cut = in.comp.first_wcp_cut();
      inputs_.push_back(std::move(in));
    }
    if (inputs_.size() < kComputations)
      throw std::runtime_error("lattice set-up: too few computations in band");
  }

  void run(Recorder& rec, double seconds) override {
    const double end = rec.now() + seconds;
    while (rec.now() < end) one_op(rec, inputs_[next_++ % inputs_.size()], 1);
  }

  void run_breakdown(Recorder& rec, double seconds) override {
    // Untraced, so multi-lane runs add no spans. Alternate which lane count
    // goes first so neither side always runs on a warmer cache.
    rec.begin_phase("lattice.lanes", false, seconds);
    double serial_s = 0, multi_s = 0;
    const double end = rec.now() + seconds;
    for (std::size_t k = 0; rec.now() < end; ++k) {
      const Input& in = inputs_[next_++ % inputs_.size()];
      for (int half = 0; half < 2; ++half) {
        const bool multi = (half == 0) == (k % 2 == 0);
        const double t = one_op(rec, in, multi ? lanes_ : 1);
        (multi ? multi_s : serial_s) += t;
      }
    }
    rec.end_phase();
    if (serial_s > 0) rec.value("lattice.mc_ratio", multi_s / serial_s);
  }

 private:
  // Returns the op's duration in seconds.
  double one_op(Recorder& rec, const Input& in, std::size_t threads) {
    const std::int64_t op = rec.next_op();
    const double t0 = rec.now();
    const int root = rec.open("lattice.op", op, -1);
    wcp::detect::LatticeResult p;
    wcp::detect::DefinitelyResult d;
    bool ran = false;
    try {
      {
        ScopedSpan s(rec, "lattice.possibly", op, root);
        p = wcp::detect::detect_lattice(in.comp, -1, threads);
      }
      {
        ScopedSpan s(rec, "lattice.definitely", op, root);
        d = wcp::detect::detect_definitely(in.comp, kDefinitelyCap, threads);
      }
      ran = true;
    } catch (const std::exception&) {
      ran = false;  // a throwing op is a failed op
    }
    rec.close(root);
    const double t1 = rec.now();
    const bool ok = ran && check(in, p, d);
    rec.op_done(t0, t1, ok);
    if (ok && rec.tracing() && threads == 1) {
      const wcp::CutStorageStats& ps = p.storage;
      const wcp::CutStorageStats& ds = d.storage;
      rec.sample("cut_storage.peak_bytes",
                 static_cast<double>(std::max(ps.peak_bytes, ds.peak_bytes)));
      rec.sample("cut_storage.probes_per_cut",
                 static_cast<double>(ps.table_probes + ds.table_probes) /
                     static_cast<double>(ps.cuts_interned + ds.cuts_interned));
      rec.sample("cut_storage.heap_allocs",
                 static_cast<double>(ps.heap_allocs + ds.heap_allocs));
      rec.sample("lattice.cuts",
                 static_cast<double>(p.cuts_explored + d.cuts_explored));
    }
    return t1 - t0;
  }

  static bool check(const Input& in, const wcp::detect::LatticeResult& p,
                    const wcp::detect::DefinitelyResult& d) {
    if (p.truncated || p.detected != in.first_cut.has_value()) return false;
    if (in.first_cut && p.cut != *in.first_cut) return false;
    const auto& ref = in.definitely;
    return !d.truncated && d.definitely == ref.definitely &&
           d.cuts_explored == ref.cuts_explored && d.witness == ref.witness &&
           d.witness_path == ref.witness_path;
  }

  std::size_t lanes_;
  std::vector<Input> inputs_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_lattice(const Config& cfg) {
  return std::make_unique<Lattice>(cfg);
}

}  // namespace perfbench

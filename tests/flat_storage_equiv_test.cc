// Randomized equivalence suite for the flat cut-storage rewrite: the
// detectors rebuilt on CutArena/CutTable must be observably identical to
// the pre-flat representation. The reference implementations below are the
// old std::queue + std::unordered_set<std::vector<StateIndex>> code paths,
// kept verbatim as test-only oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cut_hash.h"
#include "detect/batch.h"
#include "detect/gcp.h"
#include "detect/lattice.h"
#include "detect/sliced.h"
#include "slice/slice.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

using Cut = std::vector<StateIndex>;

// ---- reference implementations (pre-flat-storage code) ----------------------

struct RefLatticeResult {
  bool detected = false;
  bool truncated = false;
  Cut cut;
  std::int64_t cuts_explored = 0;
  std::int64_t max_frontier = 0;
};

RefLatticeResult ref_detect_lattice(const Computation& comp,
                                    std::int64_t max_cuts) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();
  RefLatticeResult res;

  auto satisfies = [&](const Cut& cut) {
    for (std::size_t s = 0; s < n; ++s)
      if (!comp.local_pred(procs[s], cut[s])) return false;
    return true;
  };

  Cut initial(n, 1);
  std::queue<Cut> frontier;
  std::unordered_set<Cut, CutHash> visited;
  frontier.push(initial);
  visited.insert(initial);

  while (!frontier.empty()) {
    res.max_frontier = std::max(
        res.max_frontier, static_cast<std::int64_t>(frontier.size()));
    Cut cut = std::move(frontier.front());
    frontier.pop();
    ++res.cuts_explored;
    if (satisfies(cut)) {
      res.detected = true;
      res.cut = std::move(cut);
      return res;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      return res;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (cut[s] + 1 > comp.num_states(procs[s])) continue;
      Cut next = cut;
      next[s] += 1;
      bool consistent = true;
      for (std::size_t t = 0; t < n && consistent; ++t) {
        if (t == s) continue;
        if (comp.happened_before(procs[s], next[s], procs[t], next[t]) ||
            comp.happened_before(procs[t], next[t], procs[s], next[s]))
          consistent = false;
      }
      if (consistent && visited.insert(next).second)
        frontier.push(std::move(next));
    }
  }
  return res;
}

struct RefDefinitelyResult {
  bool definitely = false;
  bool truncated = false;
  std::int64_t cuts_explored = 0;
  Cut witness;
};

Cut ref_reconstruct_witness(const Computation& comp, std::size_t n,
                            const Cut& top,
                            const std::unordered_map<Cut, Cut, CutHash>&
                                parent_of) {
  std::vector<Cut> path;
  for (Cut c = top;;) {
    path.push_back(c);
    const Cut& p = parent_of.at(c);
    if (p == c) break;
    c = p;
  }
  std::reverse(path.begin(), path.end());
  Cut witness = path.front();
  if (const auto min_sat = comp.first_wcp_cut()) {
    const auto leq = [&](const Cut& a) {
      for (std::size_t s = 0; s < n; ++s)
        if (a[s] > (*min_sat)[s]) return false;
      return true;
    };
    for (const Cut& c : path)
      if (!leq(c)) {
        witness = c;
        break;
      }
  }
  return witness;
}

RefDefinitelyResult ref_detect_definitely(const Computation& comp,
                                          std::int64_t max_cuts) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();
  RefDefinitelyResult res;

  auto satisfies = [&](const Cut& cut) {
    for (std::size_t s = 0; s < n; ++s)
      if (!comp.local_pred(procs[s], cut[s])) return false;
    return true;
  };

  Cut top(n);
  for (std::size_t s = 0; s < n; ++s) top[s] = comp.num_states(procs[s]);

  Cut initial(n, 1);
  if (satisfies(initial)) {
    res.definitely = true;
    res.cuts_explored = 1;
    return res;
  }

  std::queue<Cut> frontier;
  std::unordered_map<Cut, Cut, CutHash> parent;
  frontier.push(initial);
  parent.emplace(initial, initial);

  res.definitely = true;
  while (!frontier.empty()) {
    Cut cut = std::move(frontier.front());
    frontier.pop();
    ++res.cuts_explored;
    if (cut == top) {
      res.definitely = false;
      res.witness = ref_reconstruct_witness(comp, n, cut, parent);
      return res;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      return res;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (cut[s] + 1 > comp.num_states(procs[s])) continue;
      Cut next = cut;
      next[s] += 1;
      bool consistent = true;
      for (std::size_t t = 0; t < n && consistent; ++t) {
        if (t == s) continue;
        if (comp.happened_before(procs[s], next[s], procs[t], next[t]) ||
            comp.happened_before(procs[t], next[t], procs[s], next[s]))
          consistent = false;
      }
      if (!consistent || satisfies(next)) continue;
      if (parent.emplace(next, cut).second) frontier.push(std::move(next));
    }
  }
  return res;
}

// ---- equivalence sweeps -----------------------------------------------------

Computation random_comp(std::uint64_t seed, std::size_t N, std::size_t n,
                        std::int64_t m, double prob = 0.3) {
  workload::RandomSpec spec;
  spec.num_processes = N;
  spec.num_predicate = n;
  spec.events_per_process = m;
  spec.local_pred_prob = prob;
  spec.seed = seed;
  return workload::make_random(spec);
}

TEST(FlatStorageEquiv, LatticeMatchesReference) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto comp = random_comp(seed, 5, 4, 12);
    const auto ref = ref_detect_lattice(comp, -1);
    const auto r = detect_lattice(comp, -1);
    EXPECT_EQ(r.detected, ref.detected) << "seed " << seed;
    EXPECT_EQ(r.cut, ref.cut) << "seed " << seed;
    EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << "seed " << seed;
    EXPECT_EQ(r.max_frontier, ref.max_frontier) << "seed " << seed;
    EXPECT_EQ(r.truncated, ref.truncated) << "seed " << seed;
  }
}

TEST(FlatStorageEquiv, LatticeMatchesReferenceUnderTruncation) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 10, /*prob=*/0.05);
    for (const std::int64_t cap : {1, 7, 50, 400}) {
      const auto ref = ref_detect_lattice(comp, cap);
      const auto r = detect_lattice(comp, cap);
      EXPECT_EQ(r.detected, ref.detected) << seed << "/" << cap;
      EXPECT_EQ(r.cut, ref.cut) << seed << "/" << cap;
      EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << seed << "/" << cap;
      EXPECT_EQ(r.max_frontier, ref.max_frontier) << seed << "/" << cap;
      EXPECT_EQ(r.truncated, ref.truncated) << seed << "/" << cap;
    }
  }
}

TEST(FlatStorageEquiv, DefinitelyMatchesReference) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto comp = random_comp(seed, 4, 3, 10, /*prob=*/0.4);
    const auto ref = ref_detect_definitely(comp, -1);
    const auto r = detect_definitely(comp, -1);
    EXPECT_EQ(r.definitely, ref.definitely) << "seed " << seed;
    EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << "seed " << seed;
    EXPECT_EQ(r.truncated, ref.truncated) << "seed " << seed;
    EXPECT_EQ(r.witness, ref.witness) << "seed " << seed;
  }
}

TEST(FlatStorageEquiv, GcpLatticeMatchesReferenceStructure) {
  // detect_gcp_lattice with no channel predicates explores exactly the
  // conjunctive lattice, so the lattice reference doubles as its oracle.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 10);
    const auto ref = ref_detect_lattice(comp, -1);
    const auto r = detect_gcp_lattice(comp, {}, -1);
    ASSERT_FALSE(r.truncated) << "seed " << seed;
    EXPECT_EQ(r.detected, ref.detected) << "seed " << seed;
    EXPECT_EQ(r.cut, ref.cut) << "seed " << seed;
    EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << "seed " << seed;
  }
}

TEST(FlatStorageEquiv, GcpLatticeWithChannelsMatchesAdvanceDetector) {
  // With channel predicates the lattice oracle and the advance-candidate
  // detector must keep agreeing on the (unique minimal) satisfying cut.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto comp = random_comp(seed, 3, 3, 8);
    const auto channels = ChannelPredicate::all_channels_empty(3);
    const auto oracle = detect_gcp_lattice(comp, channels, 2'000'000);
    ASSERT_FALSE(oracle.truncated) << "seed " << seed;
    const auto fast = detect_gcp(comp, channels);
    EXPECT_EQ(oracle.detected, fast.detected) << "seed " << seed;
    if (oracle.detected) {
      EXPECT_EQ(oracle.cut, fast.cut) << "seed " << seed;
    }
  }
}

TEST(FlatStorageEquiv, SliceAgreesWithReferenceLattice) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 9);
    const auto ref = ref_detect_lattice(comp, -1);
    slice::SliceBuildCounters ctr;
    const auto s = slice::Slice::build(comp, &ctr);
    EXPECT_EQ(!s.empty(), ref.detected) << "seed " << seed;
    if (ref.detected) {
      EXPECT_EQ(s.bottom(), ref.cut) << "seed " << seed;
    }
    EXPECT_GE(ctr.storage.cuts_interned, 0) << "seed " << seed;
  }
}

TEST(FlatStorageEquiv, SliceEnumerationMatchesBruteForceSatisfyingCuts) {
  // Every satisfying consistent cut, by brute force over the full cube.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto comp = random_comp(seed, 3, 3, 6);
    const auto procs = comp.predicate_processes();
    const std::size_t n = procs.size();
    std::vector<Cut> brute;
    Cut c(n, 1);
    for (;;) {
      bool consistent = true, sat = true;
      for (std::size_t s = 0; s < n && consistent; ++s) {
        if (!comp.local_pred(procs[s], c[s])) sat = false;
        for (std::size_t t = 0; t < n && consistent; ++t) {
          if (t == s) continue;
          if (comp.happened_before(procs[s], c[s], procs[t], c[t]))
            consistent = false;
        }
      }
      if (consistent && sat) brute.push_back(c);
      std::size_t s = 0;
      while (s < n && c[s] == comp.num_states(procs[s])) c[s++] = 1;
      if (s == n) break;
      c[s] += 1;
    }

    const auto slice = slice::Slice::build(comp);
    EXPECT_EQ(slice.num_cuts().count,
              static_cast<std::int64_t>(brute.size()))
        << "seed " << seed;
    auto it = slice.cuts();
    std::vector<Cut> enumerated;
    while (const auto cut = it.next()) enumerated.push_back(*cut);
    std::sort(brute.begin(), brute.end());
    std::sort(enumerated.begin(), enumerated.end());
    EXPECT_EQ(enumerated, brute) << "seed " << seed;
  }
}

// ---- sweep differential oracle ---------------------------------------------
//
// The sweep runner drives lattice / definitely / sliced over 32 randomized
// traces — including truncation caps and witness-producing traces. Each
// lattice and definitely row must agree with the reference implementations
// above, and fanning the jobs out across a pool must leave every row's
// full JSON report byte-identical to the one-thread sweep.

TEST(FlatStorageEquiv, DifferentialOracleSweepByteIdenticalReports) {
  struct TraceSpec {
    std::uint64_t seed;
    std::size_t N, n;
    std::int64_t m;
    double prob;
    std::int64_t max_cuts;
  };
  std::vector<TraceSpec> specs;
  for (std::uint64_t i = 0; i < 32; ++i) {
    TraceSpec t;
    t.seed = 100 + i;
    t.N = 4 + i % 2;
    t.n = 3 + i % 2;
    t.m = 6 + static_cast<std::int64_t>(i % 6);
    constexpr double kProbs[] = {0.05, 0.2, 0.35, 0.5};
    t.prob = kProbs[i % 4];
    // Every fifth trace gets a tiny cap to exercise the truncation path;
    // low-prob traces among the rest produce definitely=false witnesses.
    t.max_cuts = (i % 5 == 4) ? 25 : 10'000'000;
    specs.push_back(t);
  }

  const std::vector<std::string> algos = {"lattice", "lattice-sliced",
                                          "definitely", "definitely-sliced"};
  bool saw_truncation = false, saw_witness = false, saw_detection = false;
  for (const TraceSpec& ts : specs) {
    const auto comp = random_comp(ts.seed, ts.N, ts.n, ts.m, ts.prob);
    std::vector<SweepJob> jobs;
    for (const std::string& algo : algos) {
      SweepJob j;
      j.algo = algo;
      j.seed = ts.seed;
      j.max_cuts = ts.max_cuts;
      jobs.push_back(std::move(j));
    }
    const auto base = run_sweep(comp, jobs, /*threads=*/1);
    ASSERT_EQ(base.size(), algos.size());
    for (const SweepRow& row : base) {
      if (row.verdict && row.algo == "lattice") saw_detection = true;
      if (!row.verdict && row.algo == "definitely" && !row.cut.empty())
        saw_witness = true;
      if (row.report.find("\"truncated\":1") != std::string::npos)
        saw_truncation = true;
    }
    const auto lat = ref_detect_lattice(comp, ts.max_cuts);
    EXPECT_EQ(base[0].verdict, lat.detected) << "seed " << ts.seed;
    EXPECT_EQ(base[0].cut, lat.cut) << "seed " << ts.seed;
    EXPECT_EQ(base[0].cost, lat.cuts_explored) << "seed " << ts.seed;
    const auto def = ref_detect_definitely(comp, ts.max_cuts);
    EXPECT_EQ(base[2].verdict, def.definitely) << "seed " << ts.seed;
    EXPECT_EQ(base[2].cut, def.witness) << "seed " << ts.seed;
    EXPECT_EQ(base[2].cost, def.cuts_explored) << "seed " << ts.seed;

    const auto rows = run_sweep(comp, jobs, /*threads=*/4);
    ASSERT_EQ(rows.size(), base.size());
    for (std::size_t k = 0; k < rows.size(); ++k)
      EXPECT_EQ(rows[k].report, base[k].report)
          << algos[k] << " seed " << ts.seed
          << ": JSON report not byte-identical";
  }
  // The spec mix must actually cover the interesting regimes.
  EXPECT_TRUE(saw_detection);
  EXPECT_TRUE(saw_witness);
  EXPECT_TRUE(saw_truncation);
}

TEST(FlatStorageEquiv, WitnessPathsLeadFromBottomToResultCut) {
  // witness_path is not part of the sweep report: expand it and check it
  // is a one-slot-per-step path of consistent cuts ending at the detected
  // cut (possibly) or at the top cut, through the witness (definitely).
  const auto consistent = [](const Computation& comp, const Cut& c) {
    const auto procs = comp.predicate_processes();
    for (std::size_t s = 0; s < c.size(); ++s)
      for (std::size_t t = 0; t < c.size(); ++t)
        if (s != t && comp.happened_before(procs[s], c[s], procs[t], c[t]))
          return false;
    return true;
  };
  bool saw_lattice_path = false, saw_definitely_path = false;
  for (std::uint64_t seed = 50; seed < 62; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 10, /*prob=*/0.3);
    const std::size_t n = comp.predicate_processes().size();
    const auto l = detect_lattice(comp, -1);
    if (l.detected) {
      const auto cuts = materialize_witness_path(n, l.witness_path);
      EXPECT_EQ(cuts.back(), l.cut) << "seed " << seed;
      for (const Cut& c : cuts) EXPECT_TRUE(consistent(comp, c)) << seed;
      saw_lattice_path = true;
    }
    const auto d = detect_definitely(comp, -1);
    if (!d.definitely && !d.truncated) {
      const auto cuts = materialize_witness_path(n, d.witness_path);
      Cut top(n);
      for (std::size_t s = 0; s < n; ++s)
        top[s] = comp.num_states(comp.predicate_processes()[s]);
      EXPECT_EQ(cuts.back(), top) << "seed " << seed;
      EXPECT_NE(std::find(cuts.begin(), cuts.end(), d.witness), cuts.end())
          << "seed " << seed;
      for (const Cut& c : cuts) EXPECT_TRUE(consistent(comp, c)) << seed;
      saw_definitely_path = true;
    }
  }
  EXPECT_TRUE(saw_lattice_path);
  EXPECT_TRUE(saw_definitely_path);
}

TEST(FlatStorageEquiv, StorageStatsArePopulated) {
  const auto comp = random_comp(3, 4, 4, 10);
  const auto r = detect_lattice(comp, -1);
  EXPECT_GT(r.storage.peak_bytes, 0);
  EXPECT_GT(r.storage.cuts_interned, 0);
  EXPECT_GT(r.storage.table_probes, 0);
  // Interned count == distinct cuts == visited-set size, which for a
  // completed exploration equals cuts explored.
  if (!r.detected && !r.truncated) {
    EXPECT_EQ(r.storage.cuts_interned, r.cuts_explored);
  }
}

}  // namespace
}  // namespace wcp::detect

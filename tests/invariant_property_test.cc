// Online verification of the paper's correctness lemmas (DESIGN.md I1-I3,
// I5): observer hooks fire at every token movement and check the token
// state against the ground-truth causality of the computation. Lemma 3.1
// is checked on both Fig. 3 hosts (the simulator monitors and TokenCore),
// the §4 candidate bounds on both DdCore hosts (the simulator monitors and
// the offline run).
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <tuple>

#include "app/snapshot_stream.h"
#include "detect/direct_dep.h"
#include "detect/offline.h"
#include "detect/stream_core.h"
#include "detect/token_vc.h"
#include "workload/mutex_workload.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

RunOptions opts(std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 8);
  return o;
}

// Checks Lemma 3.1 on a token snapshot.
void check_lemma_3_1(const Computation& comp, const VcToken& tok,
                     const std::optional<std::vector<StateIndex>>& first_cut,
                     const std::string& label) {
  const auto preds = comp.predicate_processes();
  const std::size_t n = preds.size();

  for (std::size_t i = 0; i < n; ++i) {
    if (tok.G[i] == 0) continue;

    if (tok.color[i] == Color::kRed) {
      // Part 1: a red non-zero candidate happened before some G[j].
      bool dominated = false;
      for (std::size_t j = 0; j < n && !dominated; ++j) {
        if (j == i || tok.G[j] == 0) continue;
        if (comp.happened_before(preds[i], tok.G[i], preds[j], tok.G[j]))
          dominated = true;
      }
      EXPECT_TRUE(dominated)
          << label << ": red slot " << i << " (G=" << tok.G[i]
          << ") dominates nothing (Lemma 3.1.1)";
      // Part 4: no WCP cut contains (i, G[i]) — in particular the first cut
      // is strictly ahead of every red candidate.
      if (first_cut) {
        EXPECT_LT(tok.G[i], (*first_cut)[i])
            << label << ": red slot " << i << " (Lemma 3.1.4)";
      }
    } else {
      // Part 2: a green candidate happened before no other candidate.
      for (std::size_t k = 0; k < n; ++k) {
        if (k == i || tok.G[k] == 0) continue;
        EXPECT_FALSE(
            comp.happened_before(preds[i], tok.G[i], preds[k], tok.G[k]))
            << label << ": green slot " << i << " happened before slot " << k
            << " (Lemma 3.1.2)";
      }
      // The candidate cut never overshoots the first WCP cut.
      if (first_cut) {
        EXPECT_LE(tok.G[i], (*first_cut)[i])
            << label << ": slot " << i << " overshot the first cut";
      }
    }
  }

  // Part 3: greens are pairwise concurrent.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      if (tok.color[i] != Color::kGreen || tok.color[j] != Color::kGreen)
        continue;
      if (tok.G[i] == 0 || tok.G[j] == 0) continue;
      EXPECT_TRUE(comp.concurrent(preds[i], tok.G[i], preds[j], tok.G[j]))
          << label << ": green slots " << i << "," << j
          << " not concurrent (Lemma 3.1.3)";
    }
}

// The hosts the invariants are checked on: the simulator monitors
// (TokenVcMonitor, DdMonitor) and the offline core hosts (TokenCore, the
// DdCores of detect_direct_dep_offline).
enum class Host { kSimulator, kCore };

// The offline TokenCore host (as detect_token_vc_offline runs it): every
// slot's candidates fed in slot order, each followed by its end of stream.
// The observer reads the core's token at every hop and at detection.
void run_token_core(const Computation& comp, const VcTokenObserver& observer) {
  const auto preds = comp.predicate_processes();
  const std::size_t n = preds.size();
  std::vector<std::vector<app::VcSnapshot>> states(n);
  std::vector<bool> eos(n, false);
  const app::SnapshotStateStream stream(states, &eos);
  std::optional<TokenCore> core;
  app::CoreHooks hooks;
  hooks.hop = [&](std::size_t from, std::size_t) {
    observer(core->token(), static_cast<int>(from), false);
  };
  core.emplace(stream, std::move(hooks));
  for (std::size_t s = 0; s < n; ++s) {
    for (StateIndex k = 1; k <= comp.num_states(preds[s]); ++k) {
      if (!comp.local_pred(preds[s], k)) continue;
      std::vector<StateIndex> c(n);
      for (std::size_t t = 0; t < n; ++t)
        c[t] = comp.clock_component(preds[s], k, preds[t]);
      states[s].emplace_back().vclock = VectorClock(std::move(c));
      core->on_state(s);
    }
    eos[s] = true;
    core->on_eos(s);
  }
  ASSERT_TRUE(core->done());
  if (core->detected()) observer(core->token(), -1, true);
}

class TokenVcInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Host>> {};

TEST_P(TokenVcInvariants, Lemma31HoldsAtEveryTokenMove) {
  const auto [seed, host] = GetParam();
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 5;
  spec.events_per_process = 15;
  spec.local_pred_prob = 0.3;
  spec.seed = seed;
  const auto comp = workload::make_random(spec);
  const auto first_cut = comp.first_wcp_cut();

  int observations = 0;
  auto observer = [&](const VcToken& tok, int holder, bool detecting) {
    ++observations;
    std::ostringstream label;
    label << "seed=" << seed << " holder=" << holder
          << " detecting=" << detecting << " obs=" << observations;
    check_lemma_3_1(comp, tok, first_cut, label.str());
    if (detecting) {
      for (std::size_t s = 0; s < tok.color.size(); ++s)
        EXPECT_EQ(tok.color[s], Color::kGreen);
    }
  };
  if (host == Host::kSimulator) {
    run_token_vc(comp, opts(seed + 1), observer);
  } else {
    run_token_core(comp, observer);
  }
  EXPECT_GT(observations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TokenVcInvariants,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 12),
                       ::testing::Values(Host::kSimulator, Host::kCore)));

TEST(TokenVcInvariantsMutex, Lemma31OnDomainWorkload) {
  workload::MutexSpec spec;
  spec.num_clients = 3;
  spec.rounds_per_client = 5;
  spec.violation_prob = 0.4;
  spec.seed = 5;
  const auto mc = workload::make_mutex(spec);
  const auto first_cut = mc.computation.first_wcp_cut();
  auto observer = [&](const VcToken& tok, int, bool) {
    check_lemma_3_1(mc.computation, tok, first_cut, "mutex");
  };
  run_token_vc(mc.computation, opts(9), observer);
}

// Direct-dependence invariants at every handoff, on both DdCore hosts: the
// simulator monitors (serial mode, where the chain is quiescent at
// handoff) and the offline run. The candidate cut never overshoots the
// first full cut, and red candidates are strictly behind it.
class DdInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Host>> {};

TEST_P(DdInvariants, CandidatesNeverOvershootFirstCut) {
  const auto [seed, host] = GetParam();
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 4;
  spec.events_per_process = 12;
  spec.local_pred_prob = 0.35;
  spec.seed = seed;
  const auto comp = workload::make_random(spec);
  const auto first_full = comp.first_wcp_cut_all_processes();

  int handoffs = 0;
  auto inspector = [&](const std::vector<const DdCore*>& cores, ProcessId,
                       int) {
    ++handoffs;
    if (!first_full) return;
    for (std::size_t p = 0; p < cores.size(); ++p) {
      const DdCore& c = *cores[p];
      if (c.color() == Color::kRed) {
        // Eliminated-through threshold must stay strictly below the cut.
        EXPECT_LT(c.G(), (*first_full)[p]) << "seed=" << seed << " P" << p;
      } else {
        EXPECT_LE(c.G(), (*first_full)[p]) << "seed=" << seed << " P" << p;
      }
    }
  };
  if (host == Host::kSimulator) {
    run_direct_dep(comp, opts(seed + 1), {}, inspector);
  } else {
    detect_direct_dep_offline(comp, inspector);
  }
  EXPECT_GT(handoffs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DdInvariants,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 12),
                       ::testing::Values(Host::kSimulator, Host::kCore)));

}  // namespace
}  // namespace wcp::detect

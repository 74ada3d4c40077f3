#include "detect/offline.h"

#include <deque>
#include <vector>

#include "app/snapshot_stream.h"
#include "clock/dependence.h"
#include "clock/vector_clock.h"
#include "common/error.h"
#include "detect/stream_core.h"

namespace wcp::detect {

namespace {

// The width-n clock Fig. 2 would stamp on state (p, k) is exactly the
// ground-truth clock projected onto the predicate processes.
VectorClock project(const Computation& comp, ProcessId p, StateIndex k) {
  const auto preds = comp.predicate_processes();
  std::vector<StateIndex> c(preds.size());
  for (std::size_t s = 0; s < preds.size(); ++s)
    c[s] = comp.clock_component(p, k, preds[s]);
  return VectorClock(std::move(c));
}

}  // namespace

DetectionResult detect_token_vc_offline(const Computation& comp) {
  const auto preds = comp.predicate_processes();
  const std::size_t n = preds.size();
  WCP_REQUIRE(n >= 1, "empty predicate");

  DetectionResult res;
  res.monitor_metrics.resize(n + 1);
  res.app_metrics.resize(comp.num_processes());

  // The Fig. 3 loop is TokenCore's. Work and token messages are charged to
  // the monitor of the slot holding the token, as in the online run.
  std::vector<std::vector<app::VcSnapshot>> states(n);
  std::vector<bool> eos(n, false);
  const app::SnapshotStateStream stream(states, &eos);
  std::size_t holder = 0;
  const std::int64_t token_bits =
      VcToken(n, /*with_v=*/false).bits(/*with_v=*/false);
  app::CoreHooks hooks;
  hooks.work = [&](std::int64_t units) {
    res.monitor_metrics.add_work(ProcessId(static_cast<int>(holder)), units);
  };
  hooks.hop = [&](std::size_t from, std::size_t to) {
    res.monitor_metrics.record_send(ProcessId(static_cast<int>(from)),
                                    MsgKind::kToken, token_bits);
    res.monitor_metrics.bump_token_hops();
    holder = to;
  };
  TokenCore core(stream, std::move(hooks));

  // Each slot's candidate stream (Fig. 2), one slot after another. A slot's
  // stream ends once all its candidates are in, so the token starves on a
  // slot exactly when the offline queue would run dry.
  for (std::size_t s = 0; s < n; ++s) {
    const ProcessId p = preds[s];
    states[s].reserve(static_cast<std::size_t>(comp.num_states(p)));
    for (StateIndex k = 1; k <= comp.num_states(p); ++k)
      if (comp.local_pred(p, k)) {
        res.app_metrics.record_send(p, MsgKind::kSnapshot,
                                    static_cast<std::int64_t>(n) * 64);
        states[s].emplace_back().vclock = project(comp, p, k);
        core.on_state(s);
      }
    eos[s] = true;
    core.on_eos(s);
  }
  WCP_CHECK(core.done());

  // The projection above pulled every clock through the columnar store.
  res.trace_store = comp.trace_store_stats();
  res.detected = core.detected();
  res.cut = core.cut();
  res.token_hops = res.monitor_metrics.token_hops();
  return res;
}

DetectionResult detect_direct_dep_offline(const Computation& comp) {
  const std::size_t N = comp.num_processes();

  DetectionResult res;
  res.monitor_metrics.resize(N + 1);
  res.app_metrics.resize(N);

  // Snapshot stream per process (§4.1): admissible states with the
  // dependences accumulated since the previous snapshot.
  struct Snap {
    LamportTime clock;
    std::vector<Dependence> deps;
  };
  std::vector<std::deque<Snap>> queue(N);
  for (std::size_t p = 0; p < N; ++p) {
    const ProcessId pid(static_cast<int>(p));
    const bool constrained = comp.predicate_slot(pid) >= 0;
    std::vector<Dependence> pending;
    for (StateIndex k = 1; k <= comp.num_states(pid); ++k) {
      if (const auto dep = comp.receive_dependence(pid, k))
        pending.push_back(*dep);
      if (!constrained || comp.local_pred(pid, k)) {
        res.app_metrics.record_send(
            pid, MsgKind::kSnapshot,
            64 + static_cast<std::int64_t>(pending.size()) * 2 * 64);
        queue[p].push_back(Snap{k, std::move(pending)});
        pending.clear();
      }
    }
  }

  std::vector<Color> color(N, Color::kRed);
  std::vector<LamportTime> G(N, 0);
  std::vector<int> next_red(N);
  for (std::size_t p = 0; p < N; ++p)
    next_red[p] = p + 1 < N ? static_cast<int>(p + 1) : -1;
  int holder = 0;

  while (true) {
    const auto h = static_cast<std::size_t>(holder);
    const ProcessId hid(holder);
    WCP_CHECK(color[h] == Color::kRed);

    // Fig. 4 repeat-loop.
    std::vector<Dependence> deplist;
    LamportTime accepted = 0;
    while (true) {
      if (queue[h].empty()) {
        res.detected = false;
        return res;
      }
      Snap snap = std::move(queue[h].front());
      queue[h].pop_front();
      res.monitor_metrics.add_work(
          hid, 1 + static_cast<std::int64_t>(snap.deps.size()));
      deplist.insert(deplist.end(), snap.deps.begin(), snap.deps.end());
      if (snap.clock > G[h]) {
        accepted = snap.clock;
        break;
      }
    }
    G[h] = accepted;
    color[h] = Color::kGreen;

    // Poll phase (immediate responses).
    for (const Dependence& dep : deplist) {
      const auto j = dep.source.idx();
      WCP_CHECK(j != h);
      res.monitor_metrics.record_send(hid, MsgKind::kPoll, 2 * 64);
      // Same units as the online run: poll send + reply receipt at the
      // holder, poll handling at the target.
      res.monitor_metrics.add_work(hid, 2);
      res.monitor_metrics.add_work(dep.source, 1);
      const Color old = color[j];
      if (dep.clock >= G[j]) {
        color[j] = Color::kRed;
        G[j] = dep.clock;
      }
      const bool became_red = color[j] == Color::kRed && old == Color::kGreen;
      if (became_red) {
        next_red[j] = next_red[h];
        next_red[h] = static_cast<int>(j);
      }
      res.monitor_metrics.record_send(dep.source, MsgKind::kPollReply, 1);
    }

    const int next = next_red[h];
    if (next < 0) {
      res.detected = true;
      res.full_cut.assign(G.begin(), G.end());
      const auto preds = comp.predicate_processes();
      res.cut.resize(preds.size());
      for (std::size_t s = 0; s < preds.size(); ++s)
        res.cut[s] = res.full_cut[preds[s].idx()];
      return res;
    }
    res.monitor_metrics.record_send(hid, MsgKind::kToken, 1);
    res.monitor_metrics.bump_token_hops();
    res.token_hops = res.monitor_metrics.token_hops();
    holder = next;
  }
}

}  // namespace wcp::detect

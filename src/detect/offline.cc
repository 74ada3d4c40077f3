#include "detect/offline.h"

#include <vector>

#include "app/snapshot.h"
#include "app/snapshot_stream.h"
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

// Process p's next §4.1 snapshot from state k on: the first admissible
// state (every state of a process outside the predicate) with the
// dependences received up to it. Charges the snapshot's send to `app`;
// false once p's states run out.
bool next_snapshot(const Computation& comp, ProcessId p, StateIndex& k,
                   app::DdSnapshot& snap, Metrics& app) {
  const bool constrained = comp.predicate_slot(p) >= 0;
  snap.deps.clear();
  while (k <= comp.num_states(p)) {
    const StateIndex s = k++;
    if (const auto dep = comp.receive_dependence(p, s))
      snap.deps.add(dep->source, dep->clock);
    if (!constrained || comp.local_pred(p, s)) {
      snap.clock = s;
      app.record_send(p, MsgKind::kSnapshot, snap.bits());
      return true;
    }
  }
  return false;
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

DetectionResult detect_direct_dep_offline(const Computation& comp,
                                          const DdInspector& inspector) {
  const std::size_t N = comp.num_processes();

  DetectionResult res;
  Metrics& mon = res.monitor_metrics;
  mon.resize(N + 1);
  res.app_metrics.resize(N);

  // One DdCore per monitor; a poll is a call on the polled core. Costs are
  // charged where the online run charges them.
  std::vector<DdCore> cores;
  std::vector<const DdCore*> view;
  cores.reserve(N);
  for (std::size_t p = 0; p < N; ++p)
    view.push_back(&cores.emplace_back(ProcessId(static_cast<int>(p)), N,
                                       /*parallel=*/false));

  std::vector<StateIndex> cursor(N, 1);  // each process's next state
  app::DdSnapshot snap;
  std::size_t h = 0;  // the token holder
  for (DdAction a = cores[0].next();;) {
    const ProcessId hid(static_cast<int>(h));
    if (a.kind == DdAction::kCandidate) {
      // The holder's stream has run dry: the token starves.
      if (!next_snapshot(comp, hid, cursor[h], snap, res.app_metrics)) break;
      mon.add_work(hid, 1 + static_cast<std::int64_t>(snap.deps.size()));
      a = cores[h].on_candidate(snap.clock, snap.deps.items());
    } else if (a.kind == DdAction::kPoll) {
      // Poll send + reply receipt at the holder, handling at the target.
      const ProcessId j(a.to);
      mon.record_send(hid, MsgKind::kPoll, 2 * 64);
      mon.add_work(hid, 2);
      mon.add_work(j, 1);
      const bool became_red = cores[j.idx()].on_poll(a.poll);
      mon.record_send(j, MsgKind::kPollReply, 1);
      a = cores[h].on_reply(j, became_red);
    } else {
      WCP_CHECK(a.kind == DdAction::kHandoff);
      if (inspector) inspector(view, hid, a.to);
      if (a.to < 0) {
        res.detected = true;
        record_dd_cut(res, comp, view);
        break;
      }
      mon.record_send(hid, MsgKind::kToken, 1);
      mon.bump_token_hops();
      h = static_cast<std::size_t>(a.to);
      a = cores[h].take_token();
    }
  }
  // The application processes send every snapshot, consumed or not.
  for (std::size_t p = 0; p < N; ++p)
    while (next_snapshot(comp, ProcessId(static_cast<int>(p)), cursor[p], snap,
                         res.app_metrics)) {
    }
  res.token_hops = mon.token_hops();
  return res;
}

}  // namespace wcp::detect

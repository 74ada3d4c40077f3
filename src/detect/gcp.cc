#include "detect/gcp.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "app/snapshot.h"
#include "app/snapshot_stream.h"
#include "common/error.h"
#include "detect/cut_walk.h"
#include "detect/lattice.h"
#include "detect/stream_core.h"

namespace wcp::detect {

std::vector<ChannelPredicate> ChannelPredicate::all_channels_empty(
    std::size_t N) {
  std::vector<ChannelPredicate> out;
  out.reserve(N * (N - 1));
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t j = 0; j < N; ++j)
      if (i != j)
        out.push_back(empty(ProcessId(static_cast<int>(i)),
                            ProcessId(static_cast<int>(j))));
  return out;
}

std::ostream& operator<<(std::ostream& os, const ChannelPredicate& cp) {
  os << "channel(" << cp.from << "->" << cp.to << ") ";
  switch (cp.kind) {
    case ChannelPredicate::Kind::kEmpty: return os << "empty";
    case ChannelPredicate::Kind::kAtMost: return os << "<= " << cp.k;
    case ChannelPredicate::Kind::kAtLeast: return os << ">= " << cp.k;
  }
  return os;
}

namespace {

// Per-channel sorted event positions, for O(log) prefix counts.
struct ChannelCounts {
  std::vector<StateIndex> send_states;  // sorted send_state values
  std::vector<StateIndex> recv_states;  // sorted recv_state values (>0 only)

  // Messages sent by `from` while it advanced to state f: send transitions
  // s -> s+1 with s < f.
  [[nodiscard]] std::int64_t sent_before(StateIndex f) const {
    return std::lower_bound(send_states.begin(), send_states.end(), f) -
           send_states.begin();
  }
  // Messages received by `to` at state t: receive created a state r <= t.
  [[nodiscard]] std::int64_t received_at(StateIndex t) const {
    return std::upper_bound(recv_states.begin(), recv_states.end(), t) -
           recv_states.begin();
  }
};

ChannelCounts build_counts(const Computation& comp, ProcessId from,
                           ProcessId to) {
  ChannelCounts cc;
  for (const MessageRecord& m : comp.messages()) {
    if (m.from != from || m.to != to) continue;
    cc.send_states.push_back(m.send_state);
    if (m.delivered()) cc.recv_states.push_back(m.recv_state);
  }
  std::sort(cc.send_states.begin(), cc.send_states.end());
  std::sort(cc.recv_states.begin(), cc.recv_states.end());
  return cc;
}

// The GCP's process set: the computation's predicate processes plus every
// channel endpoint, in ascending id order.
std::vector<ProcessId> gcp_process_set(
    const Computation& comp, std::span<const ChannelPredicate> channels) {
  std::vector<ProcessId> procs(comp.predicate_processes().begin(),
                               comp.predicate_processes().end());
  for (const auto& cp : channels) {
    procs.push_back(cp.from);
    procs.push_back(cp.to);
  }
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  return procs;
}

}  // namespace

std::int64_t in_transit(const Computation& comp, ProcessId from,
                        StateIndex from_state, ProcessId to,
                        StateIndex to_state) {
  const auto cc = build_counts(comp, from, to);
  return cc.sent_before(from_state) - cc.received_at(to_state);
}

GcpResult detect_gcp(const Computation& comp,
                     std::span<const ChannelPredicate> channels) {
  GcpResult res;
  res.procs = gcp_process_set(comp, channels);
  const std::size_t w = res.procs.size();
  WCP_REQUIRE(w >= 1, "GCP over an empty process set");

  std::map<ProcessId, std::size_t> slot_of;
  for (std::size_t s = 0; s < w; ++s) slot_of[res.procs[s]] = s;

  // The advance-candidate loop is CentralizedCore's, channel step included.
  // A head's own clock component is its state index, at which the channel
  // step reads the per-channel send/receive positions.
  std::vector<std::vector<app::VcSnapshot>> states(w);
  std::vector<bool> eos(w, false);
  const app::SnapshotStateStream stream(states, &eos);
  std::vector<CentralizedCore::Channel> chans;
  std::vector<ChannelCounts> counts;
  for (const auto& cp : channels) {
    chans.push_back({cp, slot_of.at(cp.from), slot_of.at(cp.to)});
    counts.push_back(build_counts(comp, cp.from, cp.to));
  }
  auto transit = [&](std::size_t c, StateIndex from_pos, StateIndex to_pos) {
    const std::size_t f = chans[c].from, t = chans[c].to;
    return counts[c].sent_before(stream.clock(f, from_pos, f)) -
           counts[c].received_at(stream.clock(t, to_pos, t));
  };
  CentralizedCore core(stream, {}, chans, transit);

  // Each slot's candidates, one slot after another: the local-predicate
  // states of a predicate process, every state of an endpoint outside the
  // predicate, each with its ground-truth clock projected onto the GCP's
  // process set. A slot's stream ends once all its candidates are in.
  for (std::size_t s = 0; s < w && !core.done(); ++s) {
    const ProcessId p = res.procs[s];
    const bool constrained = comp.predicate_slot(p) >= 0;
    for (StateIndex k = 1; k <= comp.num_states(p) && !core.done(); ++k) {
      if (constrained && !comp.local_pred(p, k)) continue;
      std::vector<StateIndex> clock(w);
      for (std::size_t t = 0; t < w; ++t)
        clock[t] = comp.clock_component(p, k, res.procs[t]);
      states[s].emplace_back().vclock = VectorClock(std::move(clock));
      core.on_state(s);
    }
    eos[s] = true;
    core.on_eos(s);
  }
  WCP_CHECK(core.done());

  res.detected = core.detected();
  res.cut = core.cut();
  res.eliminations = core.eliminations();
  res.channel_evals = core.channel_evals();
  return res;
}

GcpResult detect_gcp_lattice(const Computation& comp,
                             std::span<const ChannelPredicate> channels,
                             std::int64_t max_cuts) {
  GcpResult res;
  res.procs = gcp_process_set(comp, channels);
  const std::size_t w = res.procs.size();
  WCP_REQUIRE(w >= 1, "GCP over an empty process set");

  std::map<ProcessId, std::size_t> slot_of;
  for (std::size_t s = 0; s < w; ++s) slot_of[res.procs[s]] = s;

  std::vector<ChannelCounts> counts;
  counts.reserve(channels.size());
  for (const auto& cp : channels)
    counts.push_back(build_counts(comp, cp.from, cp.to));

  auto satisfies = [&](const std::vector<StateIndex>& cut) {
    for (std::size_t s = 0; s < w; ++s) {
      const ProcessId p = res.procs[s];
      if (comp.predicate_slot(p) >= 0 && !comp.local_pred(p, cut[s]))
        return false;
    }
    for (std::size_t c = 0; c < channels.size(); ++c) {
      ++res.channel_evals;
      const std::int64_t transit =
          counts[c].sent_before(cut[slot_of.at(channels[c].from)]) -
          counts[c].received_at(cut[slot_of.at(channels[c].to)]);
      if (!channels[c].holds(transit)) return false;
    }
    return true;
  };

  // The lattice walk (detect/cut_walk.h) over the GCP's process set.
  CutWalk walk(TraceClocks{comp, res.procs}, w, max_cuts);
  const WalkStatus status =
      walk.step([&](const std::vector<StateIndex>& cut) {
        if (!satisfies(cut)) return Visit::kContinue;
        res.cut = cut;
        return Visit::kStop;
      });
  res.detected = status == WalkStatus::kStopped;
  res.truncated = status == WalkStatus::kTruncated;
  res.cuts_explored = walk.visited();
  res.storage = walk.storage();
  return res;
}

}  // namespace wcp::detect

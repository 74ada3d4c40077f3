#include "detect/stream_core.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "sim/network.h"

namespace wcp::detect {

// ---------------------------------------------------------------------------
// TokenCore
// ---------------------------------------------------------------------------

void merge_token(VcToken& into, const VcToken& from) {
  WCP_CHECK(into.width() == from.width());
  for (std::size_t s = 0; s < into.width(); ++s) {
    if (from.G[s] > into.G[s]) {
      into.G[s] = from.G[s];
      into.color[s] = from.color[s];
      into.V[s] = from.V[s];
    } else if (from.G[s] == into.G[s] && from.color[s] == Color::kRed) {
      into.color[s] = Color::kRed;
    }
  }
  into.incarnation = std::max(into.incarnation, from.incarnation);
}

bool TokenLease::stranded(const VcToken& tok, const sim::Network& net,
                          std::span<const ProcessId> slot_to_pid,
                          std::span<const int> group_of_slot, int group) {
  for (std::size_t s = 0; s < tok.width(); ++s)
    if (tok.color[s] == Color::kRed &&
        (group < 0 || group_of_slot[s] == group) &&
        net.is_down_forever(sim::NodeAddr::monitor(slot_to_pid[s])))
      return true;
  return false;
}

TokenCore::TokenCore(const app::StateStream& stream, app::CoreHooks hooks)
    : stream_(stream),
      hooks_(std::move(hooks)),
      token_(stream.slots(), /*with_v=*/false) {
  WCP_REQUIRE(stream_.slots() >= 1, "empty predicate");
  queue_.resize(stream_.slots());
}

void TokenCore::on_state(std::size_t s) {
  if (done_) return;
  const StateIndex pos = stream_.last(s);
  if (!stream_.pred(s, pos)) return;  // only candidates enter Fig. 3
  queue_[s].push_back(pos);
  pump();
}

void TokenCore::on_eos(std::size_t) {
  if (done_) return;
  pump();  // the holder may now starve
}

void TokenCore::pump() {
  // A queued candidate's clock, read from the stream component by component.
  struct QueuedClock {
    const app::StateStream& stream;
    std::size_t s;
    StateIndex pos;
    StateIndex operator[](std::size_t t) const {
      return stream.clock(s, pos, t);
    }
  };
  const auto n_units = static_cast<std::int64_t>(n());
  while (!done_) {
    const std::size_t s = holder_;
    const TokenStep st = step(
        token_, s,
        [&]() -> std::optional<QueuedClock> {
          if (queue_[s].empty()) return std::nullopt;
          const StateIndex pos = queue_[s].front();
          queue_[s].pop_front();
          hooks_.add_work(n_units);  // examining one candidate is O(n)
          return QueuedClock{stream_, s, pos};
        },
        [](std::size_t) { return true; });
    if (st.kind == TokenStep::kStalled) {
      if (stream_.eos(s)) done_ = true;  // starved; otherwise stall
      return;
    }
    hooks_.add_work(n_units);  // the Fig. 3 for-loop
    if (st.kind == TokenStep::kAllGreen) {
      done_ = true;
      detected_ = true;
      cut_ = token_.G;
      return;
    }
    hooks_.token_hop(s, st.next);
    holder_ = st.next;
  }
}

StateIndex TokenCore::frontier(std::size_t s) const {
  if (done_ || queue_[s].empty()) return stream_.last(s) + 1;
  return queue_[s].front();
}

std::int64_t TokenCore::resident_bytes() const {
  std::int64_t b = static_cast<std::int64_t>(n()) *
                   static_cast<std::int64_t>(sizeof(StateIndex) + 1);
  for (const auto& q : queue_)
    b += static_cast<std::int64_t>(q.size() * sizeof(StateIndex));
  return b;
}

// ---------------------------------------------------------------------------
// CentralizedCore
// ---------------------------------------------------------------------------

CentralizedCore::CentralizedCore(const app::StateStream& stream,
                                 app::CoreHooks hooks,
                                 std::vector<Channel> channels,
                                 TransitReader transit)
    : stream_(stream),
      hooks_(std::move(hooks)),
      channels_(std::move(channels)),
      transit_(std::move(transit)) {
  const std::size_t n = stream_.slots();
  WCP_REQUIRE(n >= 1, "empty predicate");
  WCP_REQUIRE(channels_.empty() || transit_,
              "channel predicates need a transit reader");
  for (const Channel& ch : channels_)
    WCP_REQUIRE(ch.from < n && ch.to < n,
                "channel endpoint of " << ch.pred << " has no slot");
  queue_.resize(n);
  in_dirty_.assign(n, false);
}

void CentralizedCore::on_state(std::size_t s) {
  if (done_) return;
  const StateIndex pos = stream_.last(s);
  if (!stream_.pred(s, pos)) return;  // only candidates are compared
  queue_[s].push_back(pos);
  if (queue_[s].size() == 1 && !in_dirty_[s]) {
    dirty_.push_back(s);
    in_dirty_[s] = true;
  }
  process();
}

void CentralizedCore::on_eos(std::size_t s) {
  if (done_) return;
  if (queue_[s].empty()) {
    // Slot s can never supply a queue head again: no cut exists.
    done_ = true;
    detected_ = false;
  }
}

void CentralizedCore::pop_head(std::size_t s) {
  hooks_.release(s, queue_[s].front());
  queue_[s].pop_front();
  ++eliminations_;
  if (!queue_[s].empty()) {
    if (!in_dirty_[s]) {
      dirty_.push_back(s);
      in_dirty_[s] = true;
    }
  } else if (stream_.eos(s)) {
    done_ = true;  // starved after its stream ended
    detected_ = false;
  }
}

void CentralizedCore::process() {
  do {
    // A slot that starved after its stream ended makes the verdict final:
    // stop eliminating.
    while (!dirty_.empty() && !done_) {
      const std::size_t s = dirty_.front();
      dirty_.pop_front();
      in_dirty_[s] = false;
      if (queue_[s].empty()) continue;  // re-queued when a head arrives

      bool s_eliminated = false;
      const StateIndex head_s = queue_[s].front();
      for (std::size_t t = 0; t < n() && !s_eliminated; ++t) {
        if (t == s || queue_[t].empty()) continue;
        const StateIndex head_t = queue_[t].front();
        hooks_.add_work(1);
        // Own-component happened-before tests (O(1) each).
        if (stream_.clock(t, head_t, s) >= stream_.clock(s, head_s, s)) {
          // head_s -> head_t: eliminate s.
          pop_head(s);
          s_eliminated = true;
        } else if (stream_.clock(s, head_s, t) >=
                   stream_.clock(t, head_t, t)) {
          // head_t -> head_s: eliminate t.
          pop_head(t);
        }
      }
    }

    // Unless a slot starved, all present heads are pairwise concurrent.
    // Detection needs all n heads present.
    for (std::size_t s = 0; s < n(); ++s)
      if (queue_[s].empty()) return;
  } while (!channels_.empty() && channel_step());

  done_ = true;
  detected_ = true;
  cut_.resize(n());
  for (std::size_t s = 0; s < n(); ++s)
    cut_[s] = stream_.clock(s, queue_[s].front(), s);
}

bool CentralizedCore::channel_step() {
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const Channel& ch = channels_[c];
    ++channel_evals_;
    hooks_.add_work(1);
    if (ch.pred.holds(
            transit_(c, queue_[ch.from].front(), queue_[ch.to].front())))
      continue;
    // Violated on a consistent head cut: a linear predicate's forbidden
    // state. Receiver-monotone predicates (empty / at-most) stay violated
    // while the receiver keeps its head, sender-monotone ones (at-least)
    // while the sender keeps its head (detect/gcp.h).
    pop_head(ch.pred.kind == ChannelPredicate::Kind::kAtLeast ? ch.from
                                                              : ch.to);
    return true;
  }
  return false;
}

StateIndex CentralizedCore::frontier(std::size_t s) const {
  if (done_ || queue_[s].empty()) return stream_.last(s) + 1;
  return queue_[s].front();
}

std::int64_t CentralizedCore::resident_bytes() const {
  std::int64_t b = static_cast<std::int64_t>(n());
  for (const auto& q : queue_)
    b += static_cast<std::int64_t>(q.size() * sizeof(StateIndex));
  return b;
}

// ---------------------------------------------------------------------------
// LatticeOnlineCore
// ---------------------------------------------------------------------------

LatticeOnlineCore::LatticeOnlineCore(const app::StateStream& stream,
                                     app::CoreHooks hooks,
                                     std::int64_t max_cuts)
    : stream_(stream),
      hooks_(std::move(hooks)),
      max_cuts_(max_cuts),
      walk_(StreamClocks{stream}, stream.slots(), -1) {}

void LatticeOnlineCore::on_state(std::size_t s) {
  if (done_) return;
  walk_.arrive(s);
  drain();
}

void LatticeOnlineCore::on_eos(std::size_t s) {
  if (done_) return;
  // No satisfying cut can extend past a finished stream.
  walk_.end(s);
  drain();
}

void LatticeOnlineCore::drain() {
  // The cap counts the cut past max_cuts before giving up, so it is this
  // host's, not the walk's.
  const WalkStatus status =
      walk_.step([this](const std::vector<StateIndex>& cut) {
        max_frontier_ = std::max(max_frontier_, walk_.frontier());
        if (max_cuts_ >= 0 && walk_.visited() > max_cuts_) {
          gave_up_ = true;
          return Visit::kStop;
        }
        for (std::size_t s = 0; s < cut.size(); ++s)
          if (!stream_.pred(s, cut[s])) return Visit::kContinue;
        detected_ = true;
        cut_ = cut;
        return Visit::kStop;
      });
  if (walk_.clock_reads() > work_reported_) {
    hooks_.add_work(walk_.clock_reads() - work_reported_);
    work_reported_ = walk_.clock_reads();
  }
  // No cut ready or parked: future states can only wake parked cuts, so
  // the exploration is complete and the predicate never held.
  done_ = status == WalkStatus::kStopped || walk_.exhausted();
}

StateIndex LatticeOnlineCore::frontier(std::size_t s) const {
  if (done_) return stream_.last(s) + 1;
  return walk_.lowest(s, stream_.last(s) + 1);
}

}  // namespace wcp::detect

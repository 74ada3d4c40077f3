#include "detect/stream_core.h"

#include <algorithm>
#include <optional>

#include "common/cut_hash.h"
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
    : stream_(stream), hooks_(std::move(hooks)), max_cuts_(max_cuts) {
  WCP_REQUIRE(n() >= 1, "empty predicate");
  visited_arena_ = CutArena(n());
  // Seed the search with the bottom cut (always consistent).
  const std::vector<StateIndex> bottom(n(), 1);
  enqueue(visited_table_.intern(visited_arena_, bottom, CutHash{}(bottom))
              .handle);
}

void LatticeOnlineCore::enqueue(CutHandle h) {
  StateIndex level = 0;
  for (const std::uint32_t k : visited_arena_.get(h))
    level += static_cast<StateIndex>(k);
  ready_.push_back(Entry{level, seq_++, h});
  std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
}

void LatticeOnlineCore::on_state(std::size_t s) {
  if (done_) return;
  const StateIndex k = stream_.last(s);
  // Wake every cut that was waiting for exactly this state.
  auto it = parked_.find({s, k});
  if (it != parked_.end()) {
    for (const CutHandle h : it->second) enqueue(h);
    parked_.erase(it);
  }
  drain();
  check_exhausted();
}

void LatticeOnlineCore::on_eos(std::size_t s) {
  if (done_) return;
  // Parked cuts waiting on states of slot s can never be woken: every
  // parked key on s waits for a position > last(s), which will never
  // arrive, and no satisfying cut can extend past a finished stream.
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->first.first == s) {
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  drain();
  check_exhausted();
}

void LatticeOnlineCore::check_exhausted() {
  // No active cut anywhere: future states can only wake parked cuts, so
  // the exploration is complete and the predicate never held.
  if (!done_ && !gave_up_ && ready_.empty() && parked_.empty()) {
    done_ = true;
    detected_ = false;
  }
}

bool LatticeOnlineCore::available(const std::vector<StateIndex>& cut) const {
  for (std::size_t s = 0; s < n(); ++s)
    if (cut[s] > stream_.last(s)) return false;
  return true;
}

void LatticeOnlineCore::drain() {
  const CutHash hasher;

  while (!ready_.empty()) {
    const CutHandle handle = ready_.front().cut;
    std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
    ready_.pop_back();
    visited_arena_.copy_to(handle, scratch_);
    std::vector<StateIndex>& cut = scratch_;

    if (!available(cut)) {
      // Park on the first missing component (unless its stream ended, in
      // which case the cut is unreachable and is dropped).
      for (std::size_t s = 0; s < n(); ++s) {
        if (cut[s] > stream_.last(s)) {
          if (!stream_.eos(s)) parked_[{s, cut[s]}].push_back(handle);
          break;
        }
      }
      continue;
    }

    // Cuts that travelled through the parked path were generated before
    // their advanced state's clock was known, so consistency could not be
    // checked then; validate every popped cut here.
    {
      bool consistent = true;
      for (std::size_t s = 0; s < n() && consistent; ++s) {
        for (std::size_t t = s + 1; t < n() && consistent; ++t) {
          hooks_.add_work(1);
          if (stream_.clock(s, cut[s], t) >= cut[t] ||
              stream_.clock(t, cut[t], s) >= cut[s])
            consistent = false;
        }
      }
      if (!consistent) continue;
    }

    ++cuts_explored_;
    max_frontier_ = std::max(
        max_frontier_,
        static_cast<std::int64_t>(ready_.size() + parked_.size()));
    if (max_cuts_ >= 0 && cuts_explored_ > max_cuts_) {
      gave_up_ = true;
      done_ = true;
      detected_ = false;
      return;
    }

    bool satisfies = true;
    for (std::size_t s = 0; s < n() && satisfies; ++s)
      if (!stream_.pred(s, cut[s])) satisfies = false;
    if (satisfies) {
      done_ = true;
      detected_ = true;
      cut_ = cut;
      return;
    }

    // Expand consistent successors. Consistency of (s advanced by one)
    // against component t: neither state happened before the other, via
    // the own-component vector-clock test. The advance is done in place on
    // the scratch cut and undone after interning — no temporary vectors.
    for (std::size_t s = 0; s < n(); ++s) {
      cut[s] += 1;
      const std::size_t hash = hasher(cut);
      if (visited_table_.find(visited_arena_, cut, hash) != kNoCut) {
        cut[s] -= 1;
        continue;
      }
      // The advanced state may not have arrived yet; consistency can only
      // be decided with its clock. Park the candidate until it arrives.
      if (cut[s] > stream_.last(s)) {
        if (!stream_.eos(s))
          parked_[{s, cut[s]}].push_back(
              visited_table_.intern(visited_arena_, cut, hash).handle);
        cut[s] -= 1;
        continue;
      }
      bool consistent = true;
      for (std::size_t t = 0; t < n() && consistent; ++t) {
        if (t == s) continue;
        hooks_.add_work(1);
        // (t, cut[t]) -> (s, cut[s]) iff vs[t] >= cut[t]; and vice versa.
        if (stream_.clock(s, cut[s], t) >= cut[t] ||
            stream_.clock(t, cut[t], s) >= cut[s])
          consistent = false;
      }
      if (consistent)
        enqueue(visited_table_.intern(visited_arena_, cut, hash).handle);
      cut[s] -= 1;
    }
  }
}

StateIndex LatticeOnlineCore::frontier(std::size_t s) const {
  if (done_) return stream_.last(s) + 1;
  StateIndex lo = stream_.last(s) + 1;
  bool any = false;
  const auto consider = [&](CutHandle h) {
    const StateIndex c = static_cast<StateIndex>(visited_arena_.get(h)[s]);
    if (!any || c < lo) lo = c;
    any = true;
  };
  for (const Entry& e : ready_) consider(e.cut);
  for (const auto& [key, cuts] : parked_)
    for (const CutHandle h : cuts) consider(h);
  return lo;
}

void LatticeOnlineCore::collect(std::span<const StateIndex> floor) {
  WCP_CHECK(floor.size() == n());
  if (visited_arena_.empty()) return;

  // Retire every visited cut with some component strictly below the floor.
  // Safety: active (ready + parked) cuts have all components >= the
  // frontier >= floor, and successors only grow componentwise, so no
  // future cut can equal a retired one — dropping it from the visited set
  // cannot cause re-exploration.
  CutArena next_arena(n());
  CutTable next_table;
  std::vector<CutHandle> remap(visited_arena_.size(), kNoCut);
  const CutHash hasher;
  for (CutHandle h = 0; h < static_cast<CutHandle>(visited_arena_.size());
       ++h) {
    const auto span = visited_arena_.get(h);
    bool keep = true;
    for (std::size_t s = 0; s < n() && keep; ++s)
      if (static_cast<StateIndex>(span[s]) < floor[s]) keep = false;
    if (!keep) {
      ++cuts_retired_;
      continue;
    }
    visited_arena_.copy_to(h, scratch_);
    remap[h] = next_table.intern(next_arena, scratch_, hasher(scratch_)).handle;
  }
  if (next_arena.size() == visited_arena_.size()) return;  // nothing retired

  for (Entry& e : ready_) {
    e.cut = remap[e.cut];
    WCP_CHECK_MSG(e.cut != kNoCut, "GC retired an active ready cut");
  }
  for (auto& [key, cuts] : parked_)
    for (CutHandle& h : cuts) {
      h = remap[h];
      WCP_CHECK_MSG(h != kNoCut, "GC retired an active parked cut");
    }

  retired_storage_.peak_bytes =
      std::max(retired_storage_.peak_bytes,
               visited_arena_.peak_bytes() + visited_table_.peak_bytes());
  retired_storage_.table_probes += visited_table_.probes();
  retired_storage_.heap_allocs +=
      visited_arena_.growths() + visited_table_.growths();
  visited_arena_ = std::move(next_arena);
  visited_table_ = std::move(next_table);
}

CutStorageStats LatticeOnlineCore::storage() const {
  CutStorageStats s;
  visited_arena_.add_stats(s);
  visited_table_.add_stats(s);
  s.peak_bytes = std::max(s.peak_bytes, retired_storage_.peak_bytes);
  s.table_probes += retired_storage_.table_probes;
  s.heap_allocs += retired_storage_.heap_allocs;
  return s;
}

std::int64_t LatticeOnlineCore::resident_bytes() const {
  std::int64_t b =
      visited_arena_.bytes_in_use() + visited_table_.bytes_in_use();
  b += static_cast<std::int64_t>(ready_.size() * sizeof(Entry));
  for (const auto& [key, cuts] : parked_)
    b += static_cast<std::int64_t>(64 + cuts.size() * sizeof(CutHandle));
  return b;
}

}  // namespace wcp::detect

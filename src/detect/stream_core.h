// Incremental detection cores — the WCP state machines extracted from the
// simulator-hosted checkers so the streaming service (src/serve) can run
// them over wire-fed snapshot streams with frontier garbage collection.
//
// Three cores live here (the fourth, slice::SlicerCore, sits next to its
// sim host in slice/online_slicer.h):
//
//   TokenCore        — Fig. 3 of the paper run incrementally: one token
//                      walks the red slots consuming queued candidates;
//                      stalls (instead of starving) when the holder's
//                      candidate queue runs dry mid-stream.
//   CentralizedCore  — Garg & Waldecker queue-head elimination, extracted
//                      verbatim from CentralizedChecker::process().
//   LatticeOnlineCore— the online Cooper-Marzullo level-ordered lattice
//                      exploration, extracted verbatim from
//                      LatticeChecker::drain(), plus a collect() that
//                      retires visited cuts below the GC frontier.
//
// Extraction fidelity: the sim::Node hosts (CentralizedChecker,
// LatticeChecker) delegate to these cores and install CoreHooks that
// forward work/buffer accounting into the network metrics at exactly the
// old call sites, so every simulator run — verdict, cut, metrics, storage
// stats — is byte-identical to the pre-extraction implementation
// (tests/centralized_test, tests/lattice_online_test). The offline token
// run (detect/offline.h) hosts TokenCore the same way, charging work and
// token hops to the holder's monitor (tests/offline_test).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "app/state_stream.h"
#include "common/cut_storage.h"
#include "common/types.h"

namespace wcp::detect {

/// Fig. 3 token algorithm over a candidate stream. Positions whose local
/// predicate is false are skipped on arrival; the token stalls whenever the
/// holder's queue is empty and the slot's stream has not ended, and starves
/// (final verdict: not detected) once it has.
class TokenCore final : public app::StreamCore {
 public:
  TokenCore(const app::StateStream& stream, app::CoreHooks hooks);

  void on_state(std::size_t s) override;
  void on_eos(std::size_t s) override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool detected() const override { return detected_; }
  [[nodiscard]] const std::vector<StateIndex>& cut() const override {
    return cut_;
  }
  [[nodiscard]] StateIndex frontier(std::size_t s) const override;
  [[nodiscard]] std::int64_t resident_bytes() const override;

  [[nodiscard]] std::int64_t token_hops() const { return token_hops_; }
  [[nodiscard]] std::int64_t candidates_examined() const {
    return candidates_examined_;
  }

 private:
  void pump();
  [[nodiscard]] std::size_t n() const { return queue_.size(); }

  const app::StateStream& stream_;
  app::CoreHooks hooks_;
  std::vector<std::deque<StateIndex>> queue_;  // candidate positions
  std::vector<StateIndex> g_;                  // Fig. 3 G vector
  std::vector<bool> red_;
  std::size_t holder_ = 0;
  bool done_ = false;
  bool detected_ = false;
  std::vector<StateIndex> cut_;
  std::int64_t token_hops_ = 0;
  std::int64_t candidates_examined_ = 0;
};

/// Garg & Waldecker centralized checker over a candidate stream.
class CentralizedCore final : public app::StreamCore {
 public:
  CentralizedCore(const app::StateStream& stream, app::CoreHooks hooks);

  void on_state(std::size_t s) override;
  void on_eos(std::size_t s) override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool detected() const override { return detected_; }
  [[nodiscard]] const std::vector<StateIndex>& cut() const override {
    return cut_;
  }
  [[nodiscard]] StateIndex frontier(std::size_t s) const override;
  [[nodiscard]] std::int64_t resident_bytes() const override;

  [[nodiscard]] std::int64_t eliminations() const { return eliminations_; }

 private:
  void process();
  void pop_head(std::size_t s);
  [[nodiscard]] std::size_t n() const { return queue_.size(); }

  const app::StateStream& stream_;
  app::CoreHooks hooks_;
  std::vector<std::deque<StateIndex>> queue_;  // candidate positions
  std::deque<std::size_t> dirty_;  // slots whose head needs comparison
  std::vector<bool> in_dirty_;
  std::int64_t eliminations_ = 0;
  bool done_ = false;
  bool detected_ = false;
  std::vector<StateIndex> cut_;
};

/// Online Cooper-Marzullo lattice exploration over an all-states stream
/// (position == state index). See detect/lattice_online.h for the search
/// structure; this core adds eos-driven termination (the search is
/// exhausted once no active cut remains) and frontier GC over the visited
/// arena.
class LatticeOnlineCore final : public app::StreamCore {
 public:
  LatticeOnlineCore(const app::StateStream& stream, app::CoreHooks hooks,
                    std::int64_t max_cuts = -1);

  void on_state(std::size_t s) override;
  void on_eos(std::size_t s) override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool detected() const override { return detected_; }
  [[nodiscard]] const std::vector<StateIndex>& cut() const override {
    return cut_;
  }
  [[nodiscard]] StateIndex frontier(std::size_t s) const override;
  void collect(std::span<const StateIndex> floor) override;
  [[nodiscard]] std::int64_t resident_bytes() const override;

  /// Exploration exceeded max_cuts: the (non-)verdict is unreliable.
  [[nodiscard]] bool truncated() const { return gave_up_; }
  [[nodiscard]] std::int64_t cuts_explored() const { return cuts_explored_; }
  [[nodiscard]] std::int64_t max_frontier() const { return max_frontier_; }
  [[nodiscard]] std::int64_t cuts_retired() const { return cuts_retired_; }
  [[nodiscard]] CutStorageStats storage() const;

 private:
  void drain();
  void enqueue(CutHandle h);
  void check_exhausted();
  [[nodiscard]] bool available(const std::vector<StateIndex>& cut) const;
  [[nodiscard]] std::size_t n() const { return stream_.slots(); }

  const app::StateStream& stream_;
  app::CoreHooks hooks_;
  std::int64_t max_cuts_ = -1;

  // Min-heap on (level, seq) kept as a std::push_heap/pop_heap vector so
  // collect() can walk the live entries; pop order is bit-identical to the
  // std::priority_queue it replaces (same comparator, same algorithm).
  struct Entry {
    StateIndex level;
    std::int64_t seq;
    CutHandle cut;
    bool operator>(const Entry& o) const {
      return level != o.level ? level > o.level : seq > o.seq;
    }
  };
  std::vector<Entry> ready_;
  std::int64_t seq_ = 0;
  std::map<std::pair<std::size_t, StateIndex>, std::vector<CutHandle>>
      parked_;
  CutArena visited_arena_;
  CutTable visited_table_;
  CutStorageStats retired_storage_;  // stats of arenas replaced by collect()
  std::vector<StateIndex> scratch_;  // popped cut, widened; reused
  std::int64_t cuts_explored_ = 0;
  std::int64_t max_frontier_ = 0;
  std::int64_t cuts_retired_ = 0;
  bool gave_up_ = false;
  bool done_ = false;
  bool detected_ = false;
  std::vector<StateIndex> cut_;
};

}  // namespace wcp::detect

// The computation (poset) model of §2.
//
// A Computation records one finite run of a distributed program of N
// processes: per-process sequences of local states separated by send/receive
// events, the message pairing between them, and the truth value of each
// process's local predicate in each state.
//
// States are numbered the way the paper's vector clocks number them
// (Fig. 2): state k on P_i is the k-th communication-free interval; the
// event between states k and k+1 is either a send or a receive. A message
// sent between states k and k+1 is said to be "sent from state k" — it
// carries the clock of state k — and a message received between states l
// and l+1 is "received into state l+1".
//
// Computation is an immutable view over one TraceStore (trace_store.h), the
// single representation of a trace: ComputationBuilder writes the store's
// columns directly, and the binary loaders map them from disk. It provides
// the ground-truth happened-before oracle used by tests, offline reference
// detectors, and the EXPERIMENTS harness, and a const Computation is safe to
// share across threads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clock/dependence.h"
#include "clock/vector_clock.h"
#include "common/types.h"
#include "trace/trace_store_stats.h"

namespace wcp {

class TraceStore;

/// Identifier of a message within one computation.
using MessageId = std::int64_t;

/// Kind of communication event on a process timeline.
enum class EventKind : std::uint8_t { kSend, kReceive };

/// One communication event on a process. The event at position t (0-based)
/// on process p transitions local state t+1 to state t+2.
struct Event {
  EventKind kind;
  MessageId msg = -1;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Message pairing: sent by `from` from state `send_state`, received by `to`
/// into state `recv_state` (i.e. the receive created state recv_state).
/// recv_state == 0 means the message was still in flight when the observed
/// run ended (allowed; it induces no dependence).
struct MessageRecord {
  ProcessId from;
  StateIndex send_state = 0;
  ProcessId to;
  StateIndex recv_state = 0;

  [[nodiscard]] bool delivered() const { return recv_state != 0; }

  friend bool operator==(const MessageRecord&, const MessageRecord&) = default;
};

/// High bit of a packed trace-store event word: set for receives; the low
/// 31 bits are the message id. This is the wcp-tracebin 1 event-column
/// encoding (trace_store.h), shared here so views can decode it in place.
inline constexpr std::uint32_t kPackedEventReceiveBit = 0x8000'0000u;

/// Random-access, value-returning view of one process's event timeline:
/// decodes the packed 32-bit event column of a (possibly mmap-ed)
/// TraceStore in place, without materializing Event records.
class EventView {
 public:
  EventView() = default;
  EventView(const std::uint32_t* packed, std::size_t size)
      : packed_(packed), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] Event operator[](std::size_t i) const {
    const std::uint32_t w = packed_[i];
    return Event{(w & kPackedEventReceiveBit) != 0 ? EventKind::kReceive
                                                   : EventKind::kSend,
                 static_cast<MessageId>(w & ~kPackedEventReceiveBit)};
  }

  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Event;

    iterator() = default;
    iterator(const EventView* v, std::size_t i) : v_(v), i_(i) {}
    Event operator*() const { return (*v_)[i_]; }
    Event operator[](difference_type d) const {
      return (*v_)[i_ + static_cast<std::size_t>(d)];
    }
    iterator& operator++() { ++i_; return *this; }
    iterator operator++(int) { iterator t = *this; ++i_; return t; }
    iterator& operator--() { --i_; return *this; }
    iterator operator--(int) { iterator t = *this; --i_; return t; }
    iterator& operator+=(difference_type d) { i_ += static_cast<std::size_t>(d); return *this; }
    iterator& operator-=(difference_type d) { i_ -= static_cast<std::size_t>(d); return *this; }
    friend iterator operator+(iterator it, difference_type d) { return it += d; }
    friend iterator operator+(difference_type d, iterator it) { return it += d; }
    friend iterator operator-(iterator it, difference_type d) { return it -= d; }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const EventView* v_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size_}; }

 private:
  const std::uint32_t* packed_ = nullptr;
  std::size_t size_ = 0;
};

/// Value-returning view of the store's message table, decoded in place from
/// packed {from, send_state, to, recv_state} 32-bit quads, like EventView.
class MessageView {
 public:
  MessageView() = default;
  MessageView(const std::uint32_t* packed, std::size_t size)
      : packed_(packed), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] MessageRecord operator[](std::size_t i) const {
    const std::uint32_t* q = packed_ + i * 4;
    return MessageRecord{ProcessId(static_cast<std::int32_t>(q[0])),
                         static_cast<StateIndex>(q[1]),
                         ProcessId(static_cast<std::int32_t>(q[2])),
                         static_cast<StateIndex>(q[3])};
  }

  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = MessageRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = MessageRecord;

    iterator() = default;
    iterator(const MessageView* v, std::size_t i) : v_(v), i_(i) {}
    MessageRecord operator*() const { return (*v_)[i_]; }
    MessageRecord operator[](difference_type d) const {
      return (*v_)[i_ + static_cast<std::size_t>(d)];
    }
    iterator& operator++() { ++i_; return *this; }
    iterator operator++(int) { iterator t = *this; ++i_; return t; }
    iterator& operator--() { --i_; return *this; }
    iterator operator--(int) { iterator t = *this; --i_; return t; }
    iterator& operator+=(difference_type d) { i_ += static_cast<std::size_t>(d); return *this; }
    iterator& operator-=(difference_type d) { i_ -= static_cast<std::size_t>(d); return *this; }
    friend iterator operator+(iterator it, difference_type d) { return it += d; }
    friend iterator operator+(difference_type d, iterator it) { return it += d; }
    friend iterator operator-(iterator it, difference_type d) { return it -= d; }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const MessageView* v_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size_}; }

 private:
  const std::uint32_t* packed_ = nullptr;
  std::size_t size_ = 0;
};

class Computation {
 public:
  /// Builds a computation that serves events, predicates, messages, and
  /// ground-truth clocks directly out of `store`, so a mapped store stays on
  /// disk and pages in on demand. Only O(N) shape metadata is copied.
  static Computation from_store(std::shared_ptr<const TraceStore> store);

  /// Number of processes N.
  [[nodiscard]] std::size_t num_processes() const { return pred_slot_.size(); }

  /// The n processes over which the WCP is defined, in cut order.
  [[nodiscard]] std::span<const ProcessId> predicate_processes() const {
    return predicate_processes_;
  }

  /// Position of p within predicate_processes(), or -1.
  [[nodiscard]] int predicate_slot(ProcessId p) const {
    return pred_slot_.at(p.idx());
  }

  /// Number of local states on process p (>= 1). Inline: the O(N) state
  /// counts are cached here so the hot exploration loops never call into
  /// the store for shape.
  [[nodiscard]] StateIndex num_states(ProcessId p) const {
    return states_.at(p.idx());
  }

  /// Truth of p's local predicate in state k (1-based).
  [[nodiscard]] bool local_pred(ProcessId p, StateIndex k) const;

  /// Events on process p's timeline, in order (a value-returning view over
  /// the store's packed column).
  [[nodiscard]] EventView events(ProcessId p) const;

  [[nodiscard]] MessageView messages() const;

  [[nodiscard]] MessageRecord message(MessageId id) const;

  /// m in the paper: max over processes of (sends + receives).
  [[nodiscard]] std::int64_t max_messages_per_process() const;

  /// Total number of local states, summed over processes.
  [[nodiscard]] std::int64_t total_states() const;

  // ---- Ground-truth causality (full-width vector clocks) ----------------

  /// Full-width (N-component) vector clock of state (p, k), reconstructed on
  /// demand from the store's delta-encoded clock columns.
  [[nodiscard]] VectorClock ground_truth_clock(ProcessId p,
                                               StateIndex k) const;

  /// Single component j of the clock of state (p, k): one interval-index
  /// binary search, no full-clock materialization. The hot path for
  /// happened_before and the slice causal-floor computation.
  [[nodiscard]] StateIndex clock_component(ProcessId p, StateIndex k,
                                           ProcessId j) const;

  /// Ground-truth happened-before between states (§2). k == 0 (pre-initial)
  /// happens before everything on other processes' positive states? No:
  /// the pre-initial placeholder never participates; requires k >= 1.
  [[nodiscard]] bool happened_before(ProcessId i, StateIndex a, ProcessId j,
                                     StateIndex b) const;

  [[nodiscard]] bool concurrent(ProcessId i, StateIndex a, ProcessId j,
                                StateIndex b) const {
    return !happened_before(i, a, j, b) && !happened_before(j, b, i, a) &&
           !(i == j && a == b);
  }

  /// True iff the cut (one state per process in `procs` order) is pairwise
  /// concurrent.
  [[nodiscard]] bool is_consistent_cut(std::span<const ProcessId> procs,
                                       std::span<const StateIndex> cut) const;

  // ---- Offline reference oracles -----------------------------------------

  /// First (pointwise-minimal) cut over predicate_processes() whose states
  /// all satisfy their local predicates and are pairwise concurrent.
  /// std::nullopt if the WCP never holds in this run.
  [[nodiscard]] std::optional<std::vector<StateIndex>> first_wcp_cut() const;

  /// First consistent cut over all N processes in which every predicate
  /// process satisfies its local predicate and every non-predicate process
  /// is unconstrained. Used to validate the direct-dependence algorithm.
  [[nodiscard]] std::optional<std::vector<StateIndex>>
  first_wcp_cut_all_processes() const;

  // ---- Derived per-state instrumentation data ----------------------------

  /// Scalar logical clock of state (p,k) under the §4.1 rules: clock == k
  /// (the counter is incremented on every send/receive, starting at 1).
  [[nodiscard]] static LamportTime lamport_clock(StateIndex k) { return k; }

  /// Direct dependences recorded during state (p,k): one (sender, clock)
  /// pair for the receive that created state k, if any (§4.1).
  [[nodiscard]] std::optional<Dependence> receive_dependence(
      ProcessId p, StateIndex k) const;

  // ---- Columnar trace store ----------------------------------------------

  /// The columnar store every accessor reads: built by ComputationBuilder
  /// or loaded from a wcp-tracebin file, never rebuilt.
  [[nodiscard]] const TraceStore& trace_store() const { return *store_; }

  /// Storage counters of the store (all-zero only for a default-constructed
  /// computation, which has none).
  [[nodiscard]] TraceStoreStats trace_store_stats() const;

 private:
  // Shared, so copies of a computation reuse the same columns.
  std::shared_ptr<const TraceStore> store_;
  std::vector<ProcessId> predicate_processes_;
  std::vector<int> pred_slot_;   // process idx -> slot in predicate list, -1
  std::vector<StateIndex> states_;  // per-process state counts
};

std::ostream& operator<<(std::ostream& os, const Computation& c);

/// Incremental builder. Events must be appended in an order that is causally
/// valid (a receive may only be appended after its send). Everything is
/// staged in the TraceStore's packed column form — 32-bit event words,
/// 64-state predicate words and {from, send_state, to, recv_state} message
/// quads — and build() derives the clock deltas by one causal replay.
class ComputationBuilder {
 public:
  explicit ComputationBuilder(std::size_t num_processes);

  /// Restrict the WCP to these processes (default: all N). Must be called
  /// before build(); order defines cut component order.
  void set_predicate_processes(std::vector<ProcessId> procs);

  /// Default truth value of newly created states on p (initial state
  /// included). Typically false for predicate processes, true for others.
  void set_default_pred(ProcessId p, bool value);

  /// Set the local predicate value of p's *current* (latest) state.
  void mark_pred(ProcessId p, bool value = true);

  /// Append a send event on `from`; returns the message id.
  MessageId send(ProcessId from, ProcessId to);

  /// Append the receive of `msg` on its destination process.
  void receive(MessageId msg);

  /// send() immediately followed by receive().
  MessageId transfer(ProcessId from, ProcessId to);

  /// Destination process of a previously sent message.
  [[nodiscard]] ProcessId message_destination(MessageId msg) const;

  /// Number of messages currently sent but not yet received to `to`.
  [[nodiscard]] std::size_t in_flight_to(ProcessId to) const;

  /// Pops the id of some in-flight message addressed to `to` (FIFO order).
  [[nodiscard]] std::optional<MessageId> next_in_flight_to(ProcessId to) const;

  [[nodiscard]] StateIndex current_state(ProcessId p) const;

  [[nodiscard]] std::size_t num_processes() const { return default_pred_.size(); }

  /// Finalize. The builder is left in a moved-from state.
  Computation build();

 private:
  void check_pid(ProcessId p) const;
  void check_msg(MessageId msg) const;
  [[nodiscard]] bool delivered(MessageId msg) const {
    return messages_[static_cast<std::size_t>(msg) * 4 + 3] != 0;
  }
  /// Sets the predicate bit of p's current (latest) state.
  void set_current_pred(std::size_t p, bool value);
  /// Appends one packed event word on p, opening a new local state.
  void append_event(std::size_t p, std::uint32_t word);

  std::vector<ProcessId> predicate_processes_;
  std::vector<std::uint64_t> states_;                // per process
  std::vector<std::vector<std::uint32_t>> events_;   // per process, packed
  std::vector<std::vector<std::uint64_t>> pred_bits_;  // per process
  std::vector<std::uint32_t> messages_;              // quads, by message id
  std::vector<bool> default_pred_;
  std::vector<std::vector<MessageId>> in_flight_;  // per destination, FIFO
  mutable std::vector<std::size_t> in_flight_head_;
};

}  // namespace wcp

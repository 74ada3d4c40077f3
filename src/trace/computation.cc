#include "trace/computation.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"
#include "trace/trace_store.h"

namespace wcp {

Computation Computation::from_store(std::shared_ptr<const TraceStore> store) {
  WCP_REQUIRE(store != nullptr, "cannot build a computation from a null store");
  Computation c;
  const std::size_t N = store->num_processes();
  c.states_.resize(N);
  for (std::size_t p = 0; p < N; ++p)
    c.states_[p] = store->num_states(ProcessId(static_cast<int>(p)));
  c.pred_slot_.assign(N, -1);
  for (std::uint32_t v : store->predicate_processes()) {
    const ProcessId p(static_cast<std::int32_t>(v));
    c.pred_slot_.at(p.idx()) = static_cast<int>(c.predicate_processes_.size());
    c.predicate_processes_.push_back(p);
  }
  c.store_ = std::move(store);
  return c;
}

bool Computation::local_pred(ProcessId p, StateIndex k) const {
  return store_->local_pred(p, k);
}

EventView Computation::events(ProcessId p) const {
  const auto col = store_->packed_events(p);
  return EventView(col.data(), col.size());
}

MessageView Computation::messages() const {
  const auto tbl = store_->packed_messages();
  return MessageView(tbl.data(), tbl.size() / 4);
}

MessageRecord Computation::message(MessageId id) const {
  return store_->message(id);
}

std::int64_t Computation::max_messages_per_process() const {
  // events on p == states on p minus one.
  std::int64_t mx = 0;
  for (std::size_t p = 0; p < num_processes(); ++p)
    mx = std::max(mx, static_cast<std::int64_t>(
                          num_states(ProcessId(static_cast<int>(p))) - 1));
  return mx;
}

std::int64_t Computation::total_states() const {
  std::int64_t sum = 0;
  for (std::size_t p = 0; p < num_processes(); ++p)
    sum += static_cast<std::int64_t>(num_states(ProcessId(static_cast<int>(p))));
  return sum;
}

VectorClock Computation::ground_truth_clock(ProcessId p, StateIndex k) const {
  return store_->clock(p, k);
}

StateIndex Computation::clock_component(ProcessId p, StateIndex k,
                                        ProcessId j) const {
  return store_->clock_component(p, k, j);
}

TraceStoreStats Computation::trace_store_stats() const {
  return store_ ? store_->stats() : TraceStoreStats{};
}

bool Computation::happened_before(ProcessId i, StateIndex a, ProcessId j,
                                  StateIndex b) const {
  if (i == j) return a < b;
  // (i,a) -> (j,b) iff the clock of (j,b) has seen state a of P_i, i.e. a
  // message chain leaving P_i at or after state a reached (j,b). One
  // component lookup; the full clock is never reconstructed.
  return clock_component(j, b, i) >= a;
}

bool Computation::is_consistent_cut(std::span<const ProcessId> procs,
                                    std::span<const StateIndex> cut) const {
  WCP_REQUIRE(procs.size() == cut.size(), "cut width mismatch");
  for (std::size_t s = 0; s < procs.size(); ++s)
    for (std::size_t t = 0; t < procs.size(); ++t)
      if (s != t && happened_before(procs[s], cut[s], procs[t], cut[t]))
        return false;
  return true;
}

namespace {

// Shared advance-candidate oracle. `candidates[s]` lists the admissible
// state indices for slot s in increasing order.
std::optional<std::vector<StateIndex>> first_cut_oracle(
    const Computation& c, std::span<const ProcessId> procs,
    const std::vector<std::vector<StateIndex>>& candidates) {
  const std::size_t w = procs.size();
  std::vector<std::size_t> pos(w, 0);
  for (std::size_t s = 0; s < w; ++s)
    if (candidates[s].empty()) return std::nullopt;

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < w && !changed; ++s) {
      for (std::size_t t = 0; t < w; ++t) {
        if (s == t) continue;
        if (c.happened_before(procs[s], candidates[s][pos[s]], procs[t],
                              candidates[t][pos[t]])) {
          if (++pos[s] >= candidates[s].size()) return std::nullopt;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<StateIndex> cut(w);
  for (std::size_t s = 0; s < w; ++s) cut[s] = candidates[s][pos[s]];
  return cut;
}

}  // namespace

std::optional<std::vector<StateIndex>> Computation::first_wcp_cut() const {
  const auto procs = predicate_processes();
  std::vector<std::vector<StateIndex>> candidates(procs.size());
  for (std::size_t s = 0; s < procs.size(); ++s) {
    for (StateIndex k = 1; k <= num_states(procs[s]); ++k)
      if (local_pred(procs[s], k)) candidates[s].push_back(k);
  }
  return first_cut_oracle(*this, procs, candidates);
}

std::optional<std::vector<StateIndex>>
Computation::first_wcp_cut_all_processes() const {
  std::vector<ProcessId> procs;
  procs.reserve(num_processes());
  for (std::size_t p = 0; p < num_processes(); ++p)
    procs.emplace_back(static_cast<int>(p));

  std::vector<std::vector<StateIndex>> candidates(procs.size());
  for (std::size_t s = 0; s < procs.size(); ++s) {
    const bool constrained = predicate_slot(procs[s]) >= 0;
    for (StateIndex k = 1; k <= num_states(procs[s]); ++k)
      if (!constrained || local_pred(procs[s], k)) candidates[s].push_back(k);
  }
  return first_cut_oracle(*this, procs, candidates);
}

std::optional<Dependence> Computation::receive_dependence(ProcessId p,
                                                          StateIndex k) const {
  if (k < 2) return std::nullopt;
  const EventView evs = events(p);
  const auto t = static_cast<std::size_t>(k - 2);
  WCP_REQUIRE(t < evs.size(), "state (" << p << "," << k << ") out of range");
  const Event ev = evs[t];
  if (ev.kind != EventKind::kReceive) return std::nullopt;
  const MessageRecord mr = message(ev.msg);
  return Dependence{mr.from, mr.send_state};
}

std::ostream& operator<<(std::ostream& os, const Computation& c) {
  os << "Computation{N=" << c.num_processes() << ", n="
     << c.predicate_processes().size() << ", messages=" << c.messages().size()
     << ", states=" << c.total_states() << "}";
  return os;
}

// ---------------------------------------------------------------------------
// ComputationBuilder

ComputationBuilder::ComputationBuilder(std::size_t num_processes)
    : states_(num_processes, 1),
      events_(num_processes),
      pred_bits_(num_processes, std::vector<std::uint64_t>(1, 0)),
      default_pred_(num_processes, false),
      in_flight_(num_processes),
      in_flight_head_(num_processes, 0) {
  WCP_REQUIRE(num_processes >= 1, "need at least one process");
}

void ComputationBuilder::check_pid(ProcessId p) const {
  WCP_REQUIRE(p.valid() && p.idx() < num_processes(), "bad process id " << p);
}

void ComputationBuilder::check_msg(MessageId msg) const {
  WCP_REQUIRE(msg >= 0 && static_cast<std::size_t>(msg) < messages_.size() / 4,
              "unknown message " << msg);
}

void ComputationBuilder::set_current_pred(std::size_t p, bool value) {
  const std::uint64_t bit = states_[p] - 1;
  std::uint64_t& word = pred_bits_[p][bit / 64];
  const std::uint64_t mask = 1ull << (bit % 64);
  word = value ? (word | mask) : (word & ~mask);
}

void ComputationBuilder::append_event(std::size_t p, std::uint32_t word) {
  events_[p].push_back(word);
  if (states_[p] % 64 == 0) pred_bits_[p].push_back(0);
  ++states_[p];
  set_current_pred(p, default_pred_[p]);
}

void ComputationBuilder::set_predicate_processes(std::vector<ProcessId> procs) {
  WCP_REQUIRE(!procs.empty(), "predicate must cover at least one process");
  for (ProcessId p : procs) check_pid(p);
  predicate_processes_ = std::move(procs);
}

void ComputationBuilder::set_default_pred(ProcessId p, bool value) {
  check_pid(p);
  default_pred_[p.idx()] = value;
  // Apply to the current (still-open) state as well.
  set_current_pred(p.idx(), value);
}

void ComputationBuilder::mark_pred(ProcessId p, bool value) {
  check_pid(p);
  set_current_pred(p.idx(), value);
}

MessageId ComputationBuilder::send(ProcessId from, ProcessId to) {
  check_pid(from);
  check_pid(to);
  WCP_REQUIRE(from != to, "self-messages are not modeled");
  const auto id = static_cast<MessageId>(messages_.size() / 4);
  messages_.insert(messages_.end(),
                   {static_cast<std::uint32_t>(from.value()),
                    static_cast<std::uint32_t>(states_[from.idx()]),
                    static_cast<std::uint32_t>(to.value()),
                    /*recv_state=*/0});
  append_event(from.idx(), static_cast<std::uint32_t>(id));
  in_flight_[to.idx()].push_back(id);
  return id;
}

void ComputationBuilder::receive(MessageId msg) {
  check_msg(msg);
  WCP_REQUIRE(!delivered(msg), "message " << msg << " received twice");
  std::uint32_t* quad = &messages_[static_cast<std::size_t>(msg) * 4];
  const std::size_t to = quad[2];
  append_event(to, kPackedEventReceiveBit | static_cast<std::uint32_t>(msg));
  quad[3] = static_cast<std::uint32_t>(states_[to]);
  // Lazily maintained FIFO view: drop the id from the in-flight queue when
  // it reaches the head (next_in_flight_to skips delivered ids).
}

MessageId ComputationBuilder::transfer(ProcessId from, ProcessId to) {
  const MessageId id = send(from, to);
  receive(id);
  return id;
}

ProcessId ComputationBuilder::message_destination(MessageId msg) const {
  check_msg(msg);
  const std::uint32_t to = messages_[static_cast<std::size_t>(msg) * 4 + 2];
  return ProcessId(static_cast<std::int32_t>(to));
}

std::size_t ComputationBuilder::in_flight_to(ProcessId to) const {
  check_pid(to);
  std::size_t count = 0;
  const auto& q = in_flight_[to.idx()];
  for (std::size_t i = in_flight_head_[to.idx()]; i < q.size(); ++i)
    if (!delivered(q[i])) ++count;
  return count;
}

std::optional<MessageId> ComputationBuilder::next_in_flight_to(
    ProcessId to) const {
  check_pid(to);
  const auto& q = in_flight_[to.idx()];
  auto& head = in_flight_head_[to.idx()];
  while (head < q.size() && delivered(q[head])) ++head;
  if (head >= q.size()) return std::nullopt;
  return q[head];
}

StateIndex ComputationBuilder::current_state(ProcessId p) const {
  check_pid(p);
  return static_cast<StateIndex>(states_[p.idx()]);
}

Computation ComputationBuilder::build() {
  const std::size_t N = num_processes();
  if (predicate_processes_.empty()) {
    for (std::size_t p = 0; p < N; ++p)
      predicate_processes_.emplace_back(static_cast<int>(p));
  }
  std::vector<std::uint32_t> pred_procs;
  std::vector<char> listed(N, 0);
  for (ProcessId p : predicate_processes_) {
    WCP_REQUIRE(!listed[p.idx()],
                "process " << p << " listed twice in predicate");
    listed[p.idx()] = 1;
    pred_procs.push_back(static_cast<std::uint32_t>(p.value()));
  }
  return Computation::from_store(std::make_shared<const TraceStore>(
      TraceStore::assemble(std::move(states_), std::move(pred_procs), events_,
                           pred_bits_, std::move(messages_))));
}

}  // namespace wcp

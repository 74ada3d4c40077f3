#include "serve/session.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "detect/stream_core.h"
#include "slice/online_slicer.h"

namespace wcp::serve {

Session::Session(ServeOptions opts, Output out)
    : opts_(std::move(opts)), out_(std::move(out)) {
  WCP_REQUIRE(out_ != nullptr, "session needs an output sink");
}

Session::~Session() = default;

void Session::violation(const std::string& why, std::uint64_t seq) {
  std::ostringstream os;
  os << "wcp-stream parse error: " << why << " (frame seq " << seq << ")";
  throw std::invalid_argument(os.str());
}

void Session::emit(const Frame& f) { out_(encode_frame(f, out_seq_++)); }

void Session::on_frame(std::span<const std::uint8_t> bytes) {
  ack_owed_ = true;  // duplicates too: their ACK is what stops a resend loop
  const FrameHeader h = peek_header(bytes);
  if (h.seq < next_seq_ || pending_.count(h.seq) != 0) {
    ++stats_.duplicates;  // already applied or already stashed
  } else if (h.seq > next_seq_) {
    ++stats_.resequenced;
    pending_.emplace(h.seq,
                     std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    if (pending_.size() > opts_.reseq_window) {
      std::ostringstream os;
      os << "resequence window exceeded: " << pending_.size()
         << " frames buffered waiting for seq " << next_seq_;
      violation(os.str(), h.seq);
    }
  } else {
    apply_next(bytes);
    // Drain every stashed successor that is now in order.
    for (auto it = pending_.find(next_seq_); it != pending_.end();
         it = pending_.find(next_seq_)) {
      apply_next(it->second);
      pending_.erase(it);
    }
  }
}

void Session::end_batch() {
  if (ack_owed_ && !finished_) send_ack(next_seq_);
}

void Session::send_ack(std::uint64_t next_seq) {
  ack_owed_ = false;
  ++stats_.acks_sent;
  emit(make_ack(next_seq));
}

void Session::apply_next(std::span<const std::uint8_t> bytes) {
  apply(decode_frame(bytes,
                     hello_seen_ ? std::uint32_t(buffer_->slots()) : 0));
  ++next_seq_;
}

void Session::apply(const Frame& f) {
  if (finished_) violation("frame after finish", f.seq);
  ++stats_.frames_in;
  switch (f.type) {
    case FrameType::kHello: return apply_hello(f.hello, f.seq);
    case FrameType::kSubscribe: return apply_subscribe(f.subscribe, f.seq);
    case FrameType::kSnapshot: return apply_snapshot(f.snapshot, f.seq);
    case FrameType::kEos: return apply_eos(f.eos.slot, f.seq);
    case FrameType::kFinish: return apply_finish(f.seq);
    case FrameType::kAck:
    case FrameType::kVerdict:
    case FrameType::kStats:
    case FrameType::kError: {
      std::ostringstream os;
      os << "server-bound stream carries server frame type "
         << to_string(f.type);
      violation(os.str(), f.seq);
    }
  }
}

void Session::apply_hello(const HelloBody& h, std::uint64_t seq) {
  if (hello_seen_) violation("duplicate hello", seq);
  hello_seen_ = true;
  num_predicates_ = h.num_predicates;
  buffer_ = std::make_unique<StreamBuffer>(h.slots);
  floors_.assign(h.slots, 1);
  open_slots_ = h.slots;
}

void Session::apply_subscribe(const SubscribeBody& b, std::uint64_t seq) {
  if (!hello_seen_) violation("subscribe before hello", seq);
  if (snapshots_started_)
    violation("subscribe after the first snapshot", seq);
  if (b.pred_index >= num_predicates_) {
    std::ostringstream os;
    os << "predicate index " << b.pred_index << " out of range [0, "
       << num_predicates_ << ")";
    violation(os.str(), seq);
  }
  for (const Subscription& s : subs_)
    if (s.id == b.sub_id) {
      std::ostringstream os;
      os << "subscription id " << b.sub_id << " reused";
      violation(os.str(), seq);
    }

  Subscription sub;
  sub.id = b.sub_id;
  sub.algo = b.algo;
  sub.pred_index = b.pred_index;
  sub.view = std::make_unique<SubscriptionView>(*buffer_, b.pred_index);
  switch (b.algo) {
    case StreamAlgo::kToken:
      sub.core = std::make_unique<detect::TokenCore>(*sub.view,
                                                     app::CoreHooks{});
      break;
    case StreamAlgo::kChecker:
      sub.core = std::make_unique<detect::CentralizedCore>(*sub.view,
                                                           app::CoreHooks{});
      break;
    case StreamAlgo::kLatticeOnline: {
      const std::int64_t max_cuts =
          b.max_cuts >= 0 ? b.max_cuts : opts_.lattice_max_cuts;
      sub.core = std::make_unique<detect::LatticeOnlineCore>(
          *sub.view, app::CoreHooks{}, max_cuts);
      break;
    }
    case StreamAlgo::kSlicer:
      sub.core = std::make_unique<slice::SlicerCore>(*sub.view,
                                                     app::CoreHooks{});
      break;
  }
  subs_.push_back(std::move(sub));
  ++stats_.subscriptions;
}

void Session::apply_snapshot(const SnapshotBody& b, std::uint64_t seq) {
  if (!hello_seen_) violation("snapshot before hello", seq);
  if (b.slot >= buffer_->slots()) {
    std::ostringstream os;
    os << "process slot " << b.slot << " out of range [0, "
       << buffer_->slots() << ")";
    violation(os.str(), seq);
  }
  const auto s = static_cast<std::size_t>(b.slot);
  if (buffer_->eos(s)) {
    std::ostringstream os;
    os << "snapshot on slot " << b.slot << " after its eos";
    violation(os.str(), seq);
  }
  const StateIndex expected = buffer_->last(s) + 1;
  if (b.clock[s] != expected) {
    std::ostringstream os;
    os << "non-monotone clock on slot " << b.slot << ": own component "
       << b.clock[s] << ", expected " << expected;
    violation(os.str(), seq);
  }
  // A first state has seen no other process. The lattice walk relies on
  // it: the bottom cut is consistent only if every first clock is a unit.
  if (expected == 1) {
    for (std::size_t t = 0; t < buffer_->slots(); ++t)
      if (t != s && b.clock[t] != 0) {
        std::ostringstream os;
        os << "first snapshot on slot " << b.slot << " has component " << t
           << " = " << b.clock[t] << ", expected 0";
        violation(os.str(), seq);
      }
  }
  if (buffer_->last(s) >= buffer_->base(s)) {
    for (std::size_t t = 0; t < buffer_->slots(); ++t)
      if (b.clock[t] < buffer_->clock(s, buffer_->last(s), t)) {
        std::ostringstream os;
        os << "non-monotone clock on slot " << b.slot << ": component " << t
           << " went from " << buffer_->clock(s, buffer_->last(s), t)
           << " to " << b.clock[t];
        violation(os.str(), seq);
      }
  }
  for (std::size_t t = 0; t < buffer_->slots(); ++t)
    if (b.clock[t] > 0xFFFFFFFF) {
      std::ostringstream os;
      os << "clock component " << t << " (" << b.clock[t]
         << ") exceeds the packed 32-bit range";
      violation(os.str(), seq);
    }

  snapshots_started_ = true;
  buffer_->append(s, b.clock, b.pred_mask);
  ++stats_.snapshots_in;
  stats_.peak_retained_states =
      std::max(stats_.peak_retained_states, buffer_->peak_retained());
  for (Subscription& sub : subs_)
    if (!sub.core->done()) sub.core->on_state(s);
  report_new_verdicts();
  maybe_gc();
}

void Session::eos_slot(std::size_t s) {
  buffer_->set_eos(s);
  --open_slots_;
  for (Subscription& sub : subs_)
    if (!sub.core->done()) sub.core->on_eos(s);
}

void Session::apply_eos(std::uint32_t slot, std::uint64_t seq) {
  if (!hello_seen_) violation("eos before hello", seq);
  if (slot == kAllSlots) {
    for (std::size_t s = 0; s < buffer_->slots(); ++s)
      if (!buffer_->eos(s)) eos_slot(s);
  } else {
    if (slot >= buffer_->slots()) {
      std::ostringstream os;
      os << "process slot " << slot << " out of range [0, "
         << buffer_->slots() << ")";
      violation(os.str(), seq);
    }
    if (buffer_->eos(static_cast<std::size_t>(slot))) {
      std::ostringstream os;
      os << "duplicate eos on slot " << slot;
      violation(os.str(), seq);
    }
    eos_slot(static_cast<std::size_t>(slot));
  }
  report_new_verdicts();
}

void Session::apply_finish(std::uint64_t seq) {
  if (!hello_seen_) violation("finish before hello", seq);
  for (std::size_t s = 0; s < buffer_->slots(); ++s)
    if (!buffer_->eos(s)) eos_slot(s);
  report_new_verdicts();
  for (const Subscription& sub : subs_)
    WCP_CHECK_MSG(sub.core->done(),
                  "subscription " << sub.id << " undecided after eos-all");
  sample_checker_bytes();
  stats_.store_peak_bytes = buffer_->peak_bytes();
  // FINISH ends its batch itself: the ACK (covering the FINISH) goes out
  // before STATS, so STATS counts it.
  send_ack(seq + 1);
  finished_ = true;
  emit(make_stats(stats_));
}

void Session::report_new_verdicts() {
  for (Subscription& sub : subs_) {
    if (sub.reported || !sub.core->done()) continue;
    sub.reported = true;
    bool truncated = false;
    if (sub.algo == StreamAlgo::kLatticeOnline)
      truncated = static_cast<detect::LatticeOnlineCore*>(sub.core.get())
                      ->truncated();
    VerdictBody v;
    v.sub_id = sub.id;
    v.detected = sub.core->detected();
    v.truncated = truncated;
    v.cut = sub.core->cut();
    if (v.detected) ++stats_.verdicts_detected;
    verdicts_.push_back(v);
    emit(make_verdict(v.sub_id, v.detected, v.truncated, v.cut));
  }
}

void Session::maybe_gc() {
  if (opts_.gc_every == 0) return;
  if (++snaps_since_gc_ < opts_.gc_every) return;
  snaps_since_gc_ = 0;
  gc_round();
}

void Session::gc_round() {
  // Global-min frontier: the lowest position any live subscription may
  // still read, per slot. With no subscriptions everything is retirable.
  for (std::size_t s = 0; s < buffer_->slots(); ++s) {
    StateIndex floor = buffer_->last(s) + 1;
    for (const Subscription& sub : subs_)
      floor = std::min(floor, sub.core->frontier(s));
    floors_[s] = std::max(floor, buffer_->base(s));
  }
  for (std::size_t s = 0; s < buffer_->slots(); ++s)
    buffer_->trim(s, floors_[s]);
  for (Subscription& sub : subs_)
    if (!sub.core->done()) sub.core->collect(floors_);
  ++stats_.gc_rounds;
  stats_.states_retired = buffer_->retired();
  stats_.store_peak_bytes = buffer_->peak_bytes();
  std::int64_t retired_cuts = 0;
  for (const Subscription& sub : subs_)
    if (sub.algo == StreamAlgo::kLatticeOnline)
      retired_cuts +=
          static_cast<const detect::LatticeOnlineCore*>(sub.core.get())
              ->cuts_retired();
  stats_.cuts_retired = retired_cuts;
  sample_checker_bytes();
}

void Session::sample_checker_bytes() {
  std::int64_t bytes = 0;
  for (const Subscription& sub : subs_) bytes += sub.core->resident_bytes();
  stats_.checker_peak_bytes = std::max(stats_.checker_peak_bytes, bytes);
}

}  // namespace wcp::serve

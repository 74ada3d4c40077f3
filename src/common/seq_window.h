// Sequence-and-ACK: the one sliding-window core of the reliable FIFO
// channels the paper assumes (§2, §3.1), with no clock and no I/O. Seqs
// start at 0 per channel; an ACK carries the next seq its receiver expects,
// acknowledging every seq below it. Hosts count from the return values.
// sim::ReliableTransport adds retransmission timers with backoff and crash
// durability; StreamClient/Session add batching, the per-batch ACK and the
// stash bound.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>

namespace wcp {

/// Sender half: numbers items and keeps them in flight, in seq order,
/// until a cumulative ACK releases them.
template <class T>
class SeqSender {
 public:
  /// The seq the next push() assigns.
  [[nodiscard]] std::uint64_t next() const { return next_; }
  /// (seq, item) pairs in flight, in seq order: the set to resend.
  [[nodiscard]] const auto& in_flight() const { return in_flight_; }

  std::uint64_t push(T item) {
    in_flight_.emplace_back(next_, std::move(item));
    return next_++;
  }

  /// Releases the items below `next_seq` (none for a stale ACK). An ACK
  /// past the seqs sent changes nothing and returns false.
  [[nodiscard]] bool ack(std::uint64_t next_seq) {
    if (next_seq > next_) return false;
    while (!in_flight_.empty() && in_flight_.front().first < next_seq)
      in_flight_.pop_front();
    return true;
  }

  /// The in-flight item under `seq`; null once it is acked (a seq below
  /// the window wraps to an index past the end).
  [[nodiscard]] T* find(std::uint64_t seq) {
    const std::uint64_t i = seq - (next_ - in_flight_.size());
    return i < in_flight_.size() ? &in_flight_[i].second : nullptr;
  }

 private:
  std::uint64_t next_ = 0;
  std::deque<std::pair<std::uint64_t, T>> in_flight_;
};

/// kDuplicate: already delivered or stashed, drop it. kStashed: ahead of a
/// gap, kept. kNext: deliver it now, then advance().
enum class SeqArrival : std::uint8_t { kDuplicate, kStashed, kNext };

/// Receiver half: the next seq to deliver (the ACK to send) and the stash
/// of arrivals ahead of a gap.
template <class T>
class SeqReceiver {
 public:
  [[nodiscard]] std::uint64_t next() const { return next_; }
  [[nodiscard]] std::size_t stashed() const { return stash_.size(); }

  /// Classifies the arrival of `seq`; kStashed keeps make() under it, so a
  /// host copies only what it stashes.
  template <class Make>
  SeqArrival arrive(std::uint64_t seq, Make&& make) {
    if (seq < next_ || stash_.contains(seq)) return SeqArrival::kDuplicate;
    if (seq == next_) return SeqArrival::kNext;
    stash_.emplace(seq, make());
    return SeqArrival::kStashed;
  }

  /// Records next() as delivered and returns the stashed item now next in
  /// order, or null. Deliver it and call again: its copy is dropped only
  /// then, so a delivery that throws leaves next() where it was. Every
  /// stashed seq is at least next(), so that item is always the first.
  T* advance() {
    if (!stash_.empty() && stash_.begin()->first == next_)
      stash_.erase(stash_.begin());
    ++next_;
    if (stash_.empty() || stash_.begin()->first != next_) return nullptr;
    return &stash_.begin()->second;
  }

 private:
  std::uint64_t next_ = 0;
  std::map<std::uint64_t, T> stash_;
};

}  // namespace wcp

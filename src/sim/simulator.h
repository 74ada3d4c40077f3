// Deterministic discrete-event scheduler.
//
// All online detection runs execute on this single-threaded event loop.
// Events with equal timestamps fire in scheduling order (a monotone sequence
// number breaks ties), so a run is a pure function of (computation, seed,
// latency model) — a property the whole test suite leans on.
//
// The queue is a binary heap of trivially copyable {t, seq, kind, slot}
// records. A record names its event's data by slot rather than owning it:
// kClosure events index the Simulator's own slab of callbacks; every other
// kind (packet deliveries, node timers) indexes a slab of the registered
// EventHost (the Network), which step() hands the record to. Slabs recycle
// their slots through free lists, so a steady-state run schedules events
// without touching the heap allocator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"

namespace wcp::sim {

/// What a queued event is; selects who owns the data behind its slot.
enum class EventKind : std::uint8_t {
  kClosure,   ///< Simulator::Callback (crash/restart schedule, tests)
  kDelivery,  ///< a packet in flight (Network)
  kTimer,     ///< a node-local timer (Network)
};

/// Owner of the non-closure event kinds.
class EventHost {
 public:
  virtual void fire(EventKind kind, std::uint32_t slot) = 0;

 protected:
  ~EventHost() = default;
};

/// Slots for values parked while their event is queued. A free slot holds a
/// default-constructed T. Storage grows in fixed chunks, so a reference to a
/// slot stays valid while other slots are acquired: an event runs in place,
/// then its slot is released.
template <class T>
class Slab {
 public:
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
    return size_++;
  }
  std::uint32_t put(T value) {
    const std::uint32_t slot = acquire();
    (*this)[slot] = std::move(value);
    return slot;
  }
  [[nodiscard]] T& operator[](std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }
  /// Resets the slot's value and recycles the slot.
  void release(std::uint32_t slot) {
    (*this)[slot] = T{};
    free_.push_back(slot);
  }

 private:
  static constexpr std::uint32_t kChunk = 64;
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` to run at absolute virtual time t (>= now).
  void schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` to run `delay` units from now (delay >= 0).
  void schedule_after(SimTime delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Queue a host event at absolute time t (>= now); `slot` names its data
  /// in the host's slab for `kind`.
  void schedule_event(SimTime t, EventKind kind, std::uint32_t slot);

  /// Registers the owner of the non-closure kinds.
  void set_host(EventHost* host) { host_ = host; }

  /// Run the earliest pending event. Returns false if none is pending.
  bool step();

  /// Run until no events remain or `max_events` have been processed.
  void run(std::int64_t max_events = -1);

  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::int64_t events_processed() const { return processed_; }

  /// High-water mark of pending events (scheduler-pressure metric for run
  /// reports; monotone over the run).
  [[nodiscard]] std::int64_t peak_queue_depth() const { return peak_depth_; }

  /// Request the loop to stop after the current event (used on detection).
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  struct Entry {
    SimTime t;
    std::int64_t seq;
    EventKind kind;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  Slab<Callback> closures_;
  EventHost* host_ = nullptr;
  SimTime now_ = 0;
  std::int64_t seq_ = 0;
  std::int64_t processed_ = 0;
  std::int64_t peak_depth_ = 0;
  bool stopped_ = false;
};

}  // namespace wcp::sim

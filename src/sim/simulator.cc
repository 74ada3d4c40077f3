#include "sim/simulator.h"

#include <algorithm>

#include "common/error.h"

namespace wcp::sim {

void Simulator::schedule_at(SimTime t, Callback cb) {
  // Checked before the callback is parked, so a throw occupies no slot.
  WCP_REQUIRE(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  schedule_event(t, EventKind::kClosure, closures_.put(std::move(cb)));
}

void Simulator::schedule_event(SimTime t, EventKind kind, std::uint32_t slot) {
  WCP_REQUIRE(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  heap_.push_back(Entry{t, seq_++, kind, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  peak_depth_ = std::max(peak_depth_, static_cast<std::int64_t>(heap_.size()));
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  now_ = e.t;
  ++processed_;
  if (e.kind == EventKind::kClosure) {
    closures_[e.slot]();
    closures_.release(e.slot);
  } else {
    WCP_CHECK(host_ != nullptr);
    host_->fire(e.kind, e.slot);
  }
  return true;
}

void Simulator::run(std::int64_t max_events) {
  while (!stopped_ && (max_events < 0 || processed_ < max_events) && step()) {
  }
}

}  // namespace wcp::sim

#include "slice/online_slicer.h"

#include <utility>

#include "common/error.h"

namespace wcp::slice {

// ---------------------------------------------------------------------------
// SlicerCore
// ---------------------------------------------------------------------------

SlicerCore::SlicerCore(const app::StateStream& stream, app::CoreHooks hooks)
    : stream_(stream), hooks_(std::move(hooks)) {
  WCP_REQUIRE(stream_.slots() >= 1, "empty predicate");
  candidate_.assign(stream_.slots(), 1);
}

void SlicerCore::on_state(std::size_t s) {
  (void)s;
  if (done_) return;
  advance();
}

void SlicerCore::on_eos(std::size_t s) {
  (void)s;
  if (done_) return;
  advance();
}

void SlicerCore::advance() {
  const auto arrived = [&](std::size_t s) {
    return candidate_[s] <= stream_.last(s);
  };

  // Run the jil.h fixpoint over whatever has arrived. Every advance is
  // forced by arrived data only (a false state, or a state causally
  // dominated by another candidate component), so the candidate is always
  // a lower bound of the true least satisfying cut.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < n() && !changed; ++s) {
      if (!arrived(s)) {
        if (stream_.eos(s)) {
          done_ = true;  // the stream ended below the candidate
          detected_ = false;
          return;
        }
        continue;
      }
      if (!stream_.pred(s, candidate_[s])) {
        ++candidate_[s];
        ++jil_advances_;
        changed = true;
        break;
      }
      for (std::size_t t = 0; t < n() && !changed; ++t) {
        if (t == s || !arrived(t)) continue;
        ++clock_lookups_;
        hooks_.add_work(1);
        // (s, cut[s]) -> (t, cut[t]): advance s past what t has seen.
        const StateIndex floor = stream_.clock(t, candidate_[t], s);
        if (candidate_[s] <= floor) {
          jil_advances_ += floor + 1 - candidate_[s];
          candidate_[s] = floor + 1;
          changed = true;
        }
      }
    }
  }

  // Stable and fully arrived: the candidate is the least satisfying
  // consistent cut.
  for (std::size_t s = 0; s < n(); ++s)
    if (!arrived(s)) return;
  done_ = true;
  detected_ = true;
}

// ---------------------------------------------------------------------------
// OnlineSlicer (sim host)
// ---------------------------------------------------------------------------

OnlineSlicer::OnlineSlicer(Config cfg)
    : cfg_(std::move(cfg)), stream_(states_, &eos_) {
  WCP_REQUIRE(!cfg_.slot_to_pid.empty(), "empty predicate");
  states_.resize(n());
  eos_.assign(n(), false);
  app::CoreHooks hooks;
  hooks.work = [this](std::int64_t units) {
    const ProcessId coord(static_cast<int>(net().num_processes()));
    net().add_monitor_work(coord, units);
  };
  core_ = std::make_unique<SlicerCore>(stream_, std::move(hooks));
}

void OnlineSlicer::on_packet(sim::Packet&& p) {
  WCP_CHECK_MSG(p.kind == MsgKind::kSnapshot || p.kind == MsgKind::kControl,
                "online slicer got unexpected " << to_string(p.kind));
  if (core_->done()) return;

  if (slot_of_pid_.empty()) {
    slot_of_pid_.assign(net().num_processes(), -1);
    for (std::size_t s = 0; s < n(); ++s)
      slot_of_pid_[cfg_.slot_to_pid[s].idx()] = static_cast<int>(s);
  }

  if (p.kind == MsgKind::kControl) {
    if (sim::payload_cast<app::EndOfStream>(&p.payload) != nullptr) {
      const int slot = slot_of_pid_.at(p.from.pid.idx());
      if (slot >= 0) {
        eos_[static_cast<std::size_t>(slot)] = true;
        core_->on_eos(static_cast<std::size_t>(slot));
        if (core_->done()) {
          if (core_->detected()) detect_time_ = net().simulator().now();
          net().simulator().stop();
        }
      }
    }
    return;
  }

  auto snap = sim::payload_cast<app::VcSnapshot>(std::move(p.payload));
  const ProcessId coord(static_cast<int>(net().num_processes()));
  net().monitor_buffer_change(coord, snap.bytes(), +1);

  const int slot = slot_of_pid_.at(p.from.pid.idx());
  WCP_CHECK_MSG(slot >= 0, "snapshot from non-predicate process " << p.from);
  const auto su = static_cast<std::size_t>(slot);

  // FIFO app->coordinator gives states in order; index == own component.
  const StateIndex k = snap.vclock[su];
  WCP_CHECK_MSG(k == static_cast<StateIndex>(states_[su].size()) + 1,
                "state stream gap at slot " << slot);
  states_[su].push_back(std::move(snap));
  ++states_received_;

  core_->on_state(su);
  if (core_->done()) {
    if (core_->detected()) detect_time_ = net().simulator().now();
    net().simulator().stop();
  }
}

}  // namespace wcp::slice

// Measurement counters for detection experiments.
//
// Every online detector runs on the simulator and accounts its costs here,
// so the complexity claims of §3.4 / §4.4 of the paper are *measured*:
//   - messages & bits sent, split by kind (snapshot / token / poll / reply),
//   - abstract "work units" (one unit per state comparison or list op),
//   - token hops,
//   - peak buffered snapshot bytes per monitor (space claim).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace wcp {

namespace json {
class Writer;
}  // namespace json

/// Classification of monitor-layer traffic, mirroring the paper's counting
/// argument (snapshots from application processes; token; polls; replies).
enum class MsgKind : std::uint8_t {
  kSnapshot = 0,
  kToken = 1,
  kPoll = 2,
  kPollReply = 3,
  kApplication = 4,
  kControl = 5,  // end-of-stream markers and other bookkeeping (extension)
};

inline constexpr std::size_t kNumMsgKinds = 6;

const char* to_string(MsgKind kind);

/// Per-process cost counters.
struct ProcessMetrics {
  std::int64_t messages_sent[kNumMsgKinds] = {};
  std::int64_t bits_sent[kNumMsgKinds] = {};
  std::int64_t work_units = 0;          ///< state comparisons + list ops
  std::int64_t snapshots_buffered = 0;  ///< currently queued snapshots
  std::int64_t peak_buffered_bytes = 0; ///< high-water mark of queue bytes
  std::int64_t buffered_bytes = 0;

  [[nodiscard]] std::int64_t total_messages() const;
  [[nodiscard]] std::int64_t total_bits() const;

  /// One JSON object: per-kind message/bit counts plus work and buffering.
  void write_json(json::Writer& w) const;
};

/// Execution statistics of one simulator run (observability layer): event
/// loop totals, scheduler pressure, and delivered traffic per kind.
/// `wall_ms` is host wall-clock and therefore the ONE field excluded from
/// the determinism guarantee; everything else is a pure function of
/// (computation, seed, latency model).
struct RunStats {
  std::int64_t events_processed = 0;
  std::int64_t peak_queue_depth = 0;  ///< event-queue high-water mark
  std::int64_t packets_delivered[kNumMsgKinds] = {};
  double wall_ms = 0.0;               ///< host time inside the event loop

  [[nodiscard]] std::int64_t total_packets() const;

  void write_json(json::Writer& w, bool include_wall_clock = true) const;
};

/// Counters for the fault-injection layer and the reliable transport that
/// compensates for it (sim/fault.h, sim/reliable.h). All-zero on fault-free
/// runs; fully deterministic per (seed, fault plan) otherwise — wall-clock
/// is not involved anywhere.
struct FaultCounters {
  // Injected faults.
  std::int64_t drops_random = 0;     ///< Bernoulli per-transmission loss
  std::int64_t drops_burst = 0;      ///< lost inside a burst-loss window
  std::int64_t drops_partition = 0;  ///< lost across a partition
  std::int64_t drops_crash = 0;      ///< destination was down at delivery
  std::int64_t dups = 0;             ///< duplicated transmissions injected
  std::int64_t crashes = 0;          ///< crash events fired
  std::int64_t restarts = 0;         ///< restart events fired
  // Reliable-transport reactions.
  std::int64_t retransmits = 0;      ///< timeout-driven re-sends
  std::int64_t acks = 0;             ///< cumulative acks sent
  std::int64_t dup_suppressed = 0;   ///< duplicate frames discarded
  std::int64_t resequenced = 0;      ///< frames buffered out of order
  // Token recovery (detect/token_vc, detect/multi_token).
  std::int64_t token_regenerations = 0;  ///< tokens rebuilt after a lease expiry
  std::int64_t heartbeats = 0;           ///< holder heartbeats sent

  [[nodiscard]] std::int64_t total_drops() const {
    return drops_random + drops_burst + drops_partition + drops_crash;
  }
  [[nodiscard]] bool any() const;

  void merge(const FaultCounters& other);

  /// One flat JSON object (the `faults` block of wcp-run-report/1).
  void write_json(json::Writer& w) const;
};

/// Aggregated metrics for one detection run.
class Metrics {
 public:
  Metrics() = default;
  explicit Metrics(std::size_t num_processes) : processes_(num_processes) {}

  void resize(std::size_t num_processes) { processes_.resize(num_processes); }

  [[nodiscard]] std::size_t num_processes() const { return processes_.size(); }

  ProcessMetrics& at(ProcessId p) { return processes_.at(p.idx()); }
  const ProcessMetrics& at(ProcessId p) const { return processes_.at(p.idx()); }

  void record_send(ProcessId from, MsgKind kind, std::int64_t bits);
  void add_work(ProcessId p, std::int64_t units);
  void buffer_change(ProcessId p, std::int64_t delta_bytes, std::int64_t delta_count);

  void bump_token_hops() { ++token_hops_; }
  [[nodiscard]] std::int64_t token_hops() const { return token_hops_; }

  [[nodiscard]] std::int64_t total_messages(MsgKind kind) const;
  [[nodiscard]] std::int64_t total_messages() const;
  [[nodiscard]] std::int64_t total_bits(MsgKind kind) const;
  [[nodiscard]] std::int64_t total_bits() const;
  [[nodiscard]] std::int64_t total_work() const;
  [[nodiscard]] std::int64_t max_work_per_process() const;
  [[nodiscard]] std::int64_t max_peak_buffered_bytes() const;

  /// Merge another run's counters into this one (used by sweep harnesses).
  void merge(const Metrics& other);

  /// Human-readable one-run summary table.
  [[nodiscard]] std::string summary() const;

  /// One JSON object: totals per kind plus work/space aggregates; with
  /// `per_process`, also the full per-process counter breakdown.
  void write_json(json::Writer& w, bool per_process = false) const;

 private:
  std::vector<ProcessMetrics> processes_;
  std::int64_t token_hops_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Metrics& m);

}  // namespace wcp

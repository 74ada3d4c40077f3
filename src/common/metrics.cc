#include "common/metrics.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/json.h"

namespace wcp {

namespace {

/// `{"snapshot": c[0], ..., "total": sum}` for one per-kind counter array.
void write_kind_counts(json::Writer& w, const std::int64_t (&counts)[kNumMsgKinds],
                       std::int64_t total) {
  w.begin_object();
  for (std::size_t k = 0; k < kNumMsgKinds; ++k)
    w.field(to_string(static_cast<MsgKind>(k)), counts[k]);
  w.field("total", total);
  w.end_object();
}

}  // namespace

const char* to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kSnapshot: return "snapshot";
    case MsgKind::kToken: return "token";
    case MsgKind::kPoll: return "poll";
    case MsgKind::kPollReply: return "poll_reply";
    case MsgKind::kApplication: return "application";
    case MsgKind::kControl: return "control";
  }
  return "?";
}

std::int64_t ProcessMetrics::total_messages() const {
  return std::accumulate(std::begin(messages_sent), std::end(messages_sent),
                         std::int64_t{0});
}

std::int64_t ProcessMetrics::total_bits() const {
  return std::accumulate(std::begin(bits_sent), std::end(bits_sent),
                         std::int64_t{0});
}

void ProcessMetrics::write_json(json::Writer& w) const {
  w.begin_object();
  w.key("messages");
  write_kind_counts(w, messages_sent, total_messages());
  w.key("bits");
  write_kind_counts(w, bits_sent, total_bits());
  w.field("work_units", work_units);
  w.field("peak_buffered_bytes", peak_buffered_bytes);
  w.end_object();
}

std::int64_t RunStats::total_packets() const {
  return std::accumulate(std::begin(packets_delivered),
                         std::end(packets_delivered), std::int64_t{0});
}

void RunStats::write_json(json::Writer& w, bool include_wall_clock) const {
  w.begin_object();
  w.field("events_processed", events_processed);
  w.field("peak_queue_depth", peak_queue_depth);
  w.key("packets_delivered");
  write_kind_counts(w, packets_delivered, total_packets());
  if (include_wall_clock) w.field("wall_ms", wall_ms);
  w.end_object();
}

bool FaultCounters::any() const {
  return total_drops() + dups + crashes + restarts + retransmits + acks +
             dup_suppressed + resequenced + token_regenerations + heartbeats !=
         0;
}

void FaultCounters::merge(const FaultCounters& other) {
  drops_random += other.drops_random;
  drops_burst += other.drops_burst;
  drops_partition += other.drops_partition;
  drops_crash += other.drops_crash;
  dups += other.dups;
  crashes += other.crashes;
  restarts += other.restarts;
  retransmits += other.retransmits;
  acks += other.acks;
  dup_suppressed += other.dup_suppressed;
  resequenced += other.resequenced;
  token_regenerations += other.token_regenerations;
  heartbeats += other.heartbeats;
}

void FaultCounters::write_json(json::Writer& w) const {
  w.begin_object();
  w.field("drops_random", drops_random);
  w.field("drops_burst", drops_burst);
  w.field("drops_partition", drops_partition);
  w.field("drops_crash", drops_crash);
  w.field("drops_total", total_drops());
  w.field("dups", dups);
  w.field("crashes", crashes);
  w.field("restarts", restarts);
  w.field("retransmits", retransmits);
  w.field("acks", acks);
  w.field("dup_suppressed", dup_suppressed);
  w.field("resequenced", resequenced);
  w.field("token_regenerations", token_regenerations);
  w.field("heartbeats", heartbeats);
  w.end_object();
}

void Metrics::record_send(ProcessId from, MsgKind kind, std::int64_t bits) {
  auto& pm = at(from);
  ++pm.messages_sent[static_cast<std::size_t>(kind)];
  pm.bits_sent[static_cast<std::size_t>(kind)] += bits;
}

void Metrics::add_work(ProcessId p, std::int64_t units) {
  at(p).work_units += units;
}

void Metrics::buffer_change(ProcessId p, std::int64_t delta_bytes,
                            std::int64_t delta_count) {
  auto& pm = at(p);
  pm.buffered_bytes += delta_bytes;
  pm.snapshots_buffered += delta_count;
  WCP_CHECK(pm.buffered_bytes >= 0);
  pm.peak_buffered_bytes = std::max(pm.peak_buffered_bytes, pm.buffered_bytes);
}

std::int64_t Metrics::total_messages(MsgKind kind) const {
  std::int64_t sum = 0;
  for (const auto& pm : processes_)
    sum += pm.messages_sent[static_cast<std::size_t>(kind)];
  return sum;
}

std::int64_t Metrics::total_messages() const {
  std::int64_t sum = 0;
  for (const auto& pm : processes_) sum += pm.total_messages();
  return sum;
}

std::int64_t Metrics::total_bits(MsgKind kind) const {
  std::int64_t sum = 0;
  for (const auto& pm : processes_)
    sum += pm.bits_sent[static_cast<std::size_t>(kind)];
  return sum;
}

std::int64_t Metrics::total_bits() const {
  std::int64_t sum = 0;
  for (const auto& pm : processes_) sum += pm.total_bits();
  return sum;
}

std::int64_t Metrics::total_work() const {
  std::int64_t sum = 0;
  for (const auto& pm : processes_) sum += pm.work_units;
  return sum;
}

std::int64_t Metrics::max_work_per_process() const {
  std::int64_t mx = 0;
  for (const auto& pm : processes_) mx = std::max(mx, pm.work_units);
  return mx;
}

std::int64_t Metrics::max_peak_buffered_bytes() const {
  std::int64_t mx = 0;
  for (const auto& pm : processes_) mx = std::max(mx, pm.peak_buffered_bytes);
  return mx;
}

void Metrics::merge(const Metrics& other) {
  if (processes_.size() < other.processes_.size())
    processes_.resize(other.processes_.size());
  for (std::size_t i = 0; i < other.processes_.size(); ++i) {
    auto& dst = processes_[i];
    const auto& src = other.processes_[i];
    for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
      dst.messages_sent[k] += src.messages_sent[k];
      dst.bits_sent[k] += src.bits_sent[k];
    }
    dst.work_units += src.work_units;
    dst.peak_buffered_bytes =
        std::max(dst.peak_buffered_bytes, src.peak_buffered_bytes);
  }
  token_hops_ += other.token_hops_;
}

std::string Metrics::summary() const {
  std::ostringstream oss;
  oss << "messages=" << total_messages() << " (snapshot="
      << total_messages(MsgKind::kSnapshot)
      << " token=" << total_messages(MsgKind::kToken)
      << " poll=" << total_messages(MsgKind::kPoll)
      << " reply=" << total_messages(MsgKind::kPollReply) << ")"
      << " bits=" << total_bits() << " work=" << total_work()
      << " max_work/proc=" << max_work_per_process()
      << " token_hops=" << token_hops_
      << " peak_buf_bytes=" << max_peak_buffered_bytes();
  return oss.str();
}

void Metrics::write_json(json::Writer& w, bool per_process) const {
  std::int64_t messages[kNumMsgKinds];
  std::int64_t bits[kNumMsgKinds];
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    messages[k] = total_messages(static_cast<MsgKind>(k));
    bits[k] = total_bits(static_cast<MsgKind>(k));
  }
  w.begin_object();
  w.key("messages");
  write_kind_counts(w, messages, total_messages());
  w.key("bits");
  write_kind_counts(w, bits, total_bits());
  w.field("work_units", total_work());
  w.field("max_work_per_process", max_work_per_process());
  w.field("token_hops", token_hops_);
  w.field("peak_buffered_bytes", max_peak_buffered_bytes());
  if (per_process) {
    w.key("per_process");
    w.begin_array();
    for (const auto& pm : processes_) pm.write_json(w);
    w.end_array();
  }
  w.end_object();
}

std::ostream& operator<<(std::ostream& os, const Metrics& m) {
  return os << m.summary();
}

}  // namespace wcp

// What one benchmark run measures, kept in memory and written out as one
// JSON document when the run ends (run.py reduces it to metrics).
//
// Three kinds of record:
//   - ops: every closed-loop operation, with start/end time, whether its
//     output matched the oracle, and an optional tag, grouped in phases
//     (one phase = one timed stretch of one workload);
//   - spans: name, start, end, parent span and op id, recorded around the
//     calls the benchmark makes into each library module. Spans are only
//     kept when tracing is on; self times are derived offline;
//   - samples: per-op counter readings (cut-storage probes, bytes on the
//     wire, ...) and run-level values, by metric name.
//
// One Recorder is used from one thread: the serve workload's client thread
// or the caller thread of the offline and lattice workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Recorder {
 public:
  Recorder();

  /// True while the open phase is traced: spans are only kept then.
  [[nodiscard]] bool tracing() const { return tracing_; }

  /// Seconds since the recorder was created (the run's time origin).
  [[nodiscard]] double now() const;

  // ---- phases and ops ----------------------------------------------------

  /// Starts a phase measured over its first `seconds`; ops recorded until
  /// end_phase() belong to it (ops still finishing after `seconds` are
  /// recorded and checked, but fall outside the measured window).
  void begin_phase(const std::string& name, bool traced, double seconds);
  void end_phase();
  /// Makes room for `n` ops of the next phase now, written through so the
  /// pages are resident: call it before the peak-RSS count restarts, and
  /// the op log then adds nothing to the peak as it fills, however fast
  /// the ops run.
  void reserve_ops(std::size_t n);
  /// A fresh op id (also the id spans of that op carry).
  std::int64_t next_op() { return next_op_++; }
  void op_done(double start, double end, bool ok, int tag = 0);

  // ---- spans -------------------------------------------------------------

  /// Opens a span; returns its id, or -1 when tracing is off.
  int open(std::string_view name, std::int64_t op, int parent);
  void close(int id);

  // ---- samples -----------------------------------------------------------

  void sample(const std::string& name, double value);
  void value(const std::string& name, double v) { values_[name] = v; }
  void setup_seconds(double s) { setup_s_.push_back(s); }

  /// Writes the whole record; `stamp` is a JSON object literal.
  void write_json(const std::string& path, const std::string& stamp) const;

 private:
  struct Op {
    double start, end;
    bool ok;
    int tag;
  };
  struct Phase {
    std::string name;
    bool traced;
    double seconds;
    double start, end;
    std::vector<Op> ops;
  };
  struct Span {
    int name;
    int parent;
    std::int64_t op;
    std::int64_t start_ns, end_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const;

  bool tracing_ = false;
  Clock::time_point origin_;
  std::vector<Phase> phases_;
  std::vector<Op> reserved_ops_;  // handed to the next phase
  bool in_phase_ = false;
  std::int64_t next_op_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> span_names_;
  std::map<std::string, int, std::less<>> span_ids_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::vector<double> setup_s_;
};

/// A span around one synchronous call.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& r, std::string_view name, std::int64_t op, int parent)
      : r_(r), id_(r.open(name, op, parent)) {}
  ~ScopedSpan() { r_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Recorder& r_;
  int id_;
};

/// Wall-clock seconds of a steady_clock interval.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace perfbench

#include "detect/report.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace wcp::detect {

namespace {

void write_header(json::Writer& w, std::string_view bench,
                  const ReportParams& params) {
  w.field("schema", kRunReportSchema);
  w.field("bench", bench);
  w.key("params");
  w.begin_object();
  w.field("N", params.N);
  w.field("n", params.n);
  w.field("m", params.m);
  w.field("seed", params.seed);
  if (!params.faults.empty()) w.field("faults", params.faults);
  w.end_object();
}

void write_bound_ratio(json::Writer& w, std::optional<double> bound,
                       std::optional<double> ratio) {
  w.key("bound");
  if (bound) w.value(*bound); else w.value(nullptr);
  w.key("ratio");
  if (ratio) w.value(*ratio); else w.value(nullptr);
}

}  // namespace

void write_run_report(json::Writer& w, std::string_view bench,
                      const ReportParams& params, const DetectionResult& r,
                      std::optional<double> bound, std::optional<double> ratio,
                      bool include_wall_clock) {
  w.begin_object();
  write_header(w, bench, params);
  w.key("metrics");
  w.begin_object();
  // Headline totals over both layers (application + monitor/coordinator),
  // the counters every complexity claim is stated in.
  w.field("detected", r.detected);
  w.field("messages",
          r.app_metrics.total_messages() + r.monitor_metrics.total_messages());
  w.field("bits", r.app_metrics.total_bits() + r.monitor_metrics.total_bits());
  w.field("work_units",
          r.app_metrics.total_work() + r.monitor_metrics.total_work());
  w.field("max_work_per_process",
          std::max(r.app_metrics.max_work_per_process(),
                   r.monitor_metrics.max_work_per_process()));
  w.field("token_hops", r.token_hops);
  w.field("peak_buffered_bytes",
          std::max(r.app_metrics.max_peak_buffered_bytes(),
                   r.monitor_metrics.max_peak_buffered_bytes()));
  w.field("detect_time", static_cast<std::int64_t>(r.detect_time));
  w.field("end_time", static_cast<std::int64_t>(r.end_time));
  // Fault-injection summary (only on faulty runs, so fault-free reports
  // stay byte-identical across schema revisions).
  if (r.faults.any()) {
    w.key("faults");
    r.faults.write_json(w);
  }
  // Same rule for a run that hit its event budget (1, as other families).
  if (r.truncated) w.field("truncated", 1);
  // The full per-layer breakdown for downstream tooling.
  w.key("result");
  r.write_json(w, include_wall_clock);
  w.end_object();
  write_bound_ratio(w, bound, ratio);
  w.end_object();
}

void MetricValue::write(json::Writer& w) const {
  switch (kind_) {
    case Kind::kInt: w.value(int_); break;
    case Kind::kUint: w.value(uint_); break;
    case Kind::kDouble: w.value(double_); break;
  }
}

double MetricValue::as_double() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return double_;
  }
  return 0.0;
}

void write_run_report(
    json::Writer& w, std::string_view bench, const ReportParams& params,
    const std::vector<std::pair<std::string, MetricValue>>& metrics,
    std::optional<double> bound, std::optional<double> ratio) {
  w.begin_object();
  write_header(w, bench, params);
  w.key("metrics");
  w.begin_object();
  for (const auto& [k, v] : metrics) {
    w.key(k);
    v.write(w);
  }
  w.end_object();
  write_bound_ratio(w, bound, ratio);
  w.end_object();
}

std::string run_report_string(std::string_view bench,
                              const ReportParams& params,
                              const DetectionResult& r,
                              std::optional<double> bound,
                              std::optional<double> ratio,
                              bool include_wall_clock, int indent) {
  std::ostringstream oss;
  json::Writer w(oss, indent);
  write_run_report(w, bench, params, r, bound, ratio, include_wall_clock);
  return oss.str();
}

}  // namespace wcp::detect

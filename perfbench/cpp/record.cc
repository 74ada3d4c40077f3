#include "record.h"

#include <fstream>
#include <stdexcept>

#include "common/json.h"

namespace perfbench {

Recorder::Recorder() : origin_(Clock::now()) {}

double Recorder::now() const { return seconds_between(origin_, Clock::now()); }

std::int64_t Recorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Recorder::begin_phase(const std::string& name, bool traced,
                           double seconds) {
  if (in_phase_) throw std::logic_error("phase already open");
  in_phase_ = true;
  tracing_ = traced;
  const double t = now();
  phases_.push_back(Phase{name, traced, seconds, t, t, {}});
  phases_.back().ops.swap(reserved_ops_);
}

void Recorder::reserve_ops(std::size_t n) {
  reserved_ops_.assign(n, Op{});
  reserved_ops_.clear();  // keeps the capacity and its resident pages
}

void Recorder::end_phase() {
  if (!in_phase_) throw std::logic_error("no phase open");
  in_phase_ = false;
  tracing_ = false;
  phases_.back().end = now();
}

void Recorder::op_done(double start, double end, bool ok, int tag) {
  ++attempted_;
  if (!ok) ++failed_;
  if (in_phase_) phases_.back().ops.push_back(Op{start, end, ok, tag});
}

int Recorder::open(std::string_view name, std::int64_t op, int parent) {
  if (!tracing_) return -1;
  auto it = span_ids_.find(name);
  if (it == span_ids_.end()) {
    it = span_ids_.emplace(std::string(name),
                           static_cast<int>(span_names_.size())).first;
    span_names_.emplace_back(name);
  }
  spans_.push_back(Span{it->second, parent, op, now_ns(), -1});
  return static_cast<int>(spans_.size() - 1);
}

void Recorder::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void Recorder::sample(const std::string& name, double value) {
  samples_[name].push_back(value);
}

void Recorder::write_json(const std::string& path,
                          const std::string& stamp) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  wcp::json::Writer w(os, 0);
  w.begin_object();
  w.key("stamp").raw(stamp);
  w.field("attempted", attempted_);
  w.field("failed", failed_);
  w.key("setup_s").begin_array();
  for (double s : setup_s_) w.value(s);
  w.end_array();
  w.key("phases").begin_array();
  for (const Phase& ph : phases_) {
    w.begin_object();
    w.field("name", std::string_view(ph.name));
    w.field("traced", ph.traced);
    w.field("seconds", ph.seconds);
    w.field("start", ph.start);
    w.field("end", ph.end);
    w.key("ops").begin_array();
    for (const Op& o : ph.ops) {
      w.begin_array().value(o.start).value(o.end).value(o.ok ? 1 : 0);
      w.value(o.tag).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("span_names").begin_array();
  for (const std::string& name : span_names_) w.value(std::string_view(name));
  w.end_array();
  w.key("spans").begin_array();
  for (const Span& s : spans_) {
    w.begin_array().value(s.name).value(s.parent).value(s.op);
    w.value(s.start_ns).value(s.end_ns).end_array();
  }
  w.end_array();
  w.key("samples").begin_object();
  for (const auto& [name, vs] : samples_) {
    w.key(name).begin_array();
    for (double v : vs) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("values").begin_object();
  for (const auto& [name, v] : values_) w.field(name, v);
  w.end_object();
  w.end_object();
  os << '\n';
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace perfbench

// The observability layer: json::Writer formatting, json::parse round
// trips, metrics serialization, and the determinism contract of the
// wcp-run-report records ("identical (computation, seed, latency model) ->
// byte-identical report modulo wall-clock").
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>

#include "common/json.h"
#include "common/metrics.h"
#include "app/app_driver.h"
#include "detect/report.h"
#include "detect/result.h"
#include "detect/token_vc.h"
#include "sim/network.h"
#include "workload/random_workload.h"

namespace wcp {
namespace {

std::string render(const std::function<void(json::Writer&)>& body,
                   int indent = 0) {
  std::ostringstream os;
  json::Writer w(os, indent);
  body(w);
  EXPECT_TRUE(w.complete());
  return os.str();
}

TEST(JsonWriter, CompactObjectAndArray) {
  const auto s = render([](json::Writer& w) {
    w.begin_object();
    w.field("a", 1).field("b", true).field("c", nullptr);
    w.key("list").begin_array().value(1).value(2.5).value("x").end_array();
    w.end_object();
  });
  EXPECT_EQ(s, R"({"a":1,"b":true,"c":null,"list":[1,2.5,"x"]})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  const auto s = render([](json::Writer& w) {
    w.begin_object();
    w.field("k", std::string_view("a\"b\\c\n\t\x01z"));
    w.end_object();
  });
  EXPECT_EQ(s, "{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001z\"}");
}

TEST(JsonWriter, DoublesUseShortestRoundTrip) {
  const auto s = render([](json::Writer& w) {
    w.begin_array();
    w.value(0.1).value(1.0).value(-2.5e300);
    w.end_array();
  });
  EXPECT_EQ(s, "[0.1,1,-2.5e+300]");
}

TEST(JsonWriter, IntegralDoublesAvoidExponentNotation) {
  // Counters that pass through double (1e5 explored cuts, ...) must print
  // as plain integers up to 2^53; beyond that, shortest round-trip applies.
  const auto s = render([](json::Writer& w) {
    w.begin_array();
    w.value(100000.0).value(1e7).value(-42.0).value(9007199254740992.0);
    w.value(1.8446744073709552e19);  // > 2^53: shortest round-trip applies
    w.end_array();
  });
  EXPECT_EQ(s, "[100000,10000000,-42,9007199254740992,18446744073709551616]");
  // And they re-parse as exact integers.
  const auto v = json::parse("[100000,10000000]");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->array[0].integer, 100000);
  EXPECT_EQ(v->array[1].integer, 10000000);
}

TEST(JsonWriter, NonFiniteDoublesClampToNullAndCount) {
  std::ostringstream os;
  json::Writer w(os, 0);
  w.begin_array();
  EXPECT_EQ(w.nonfinite_clamped(), 0);
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);  // finite values do not bump the counter
  w.end_array();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(), "[null,null,null,1.5]");
  EXPECT_EQ(w.nonfinite_clamped(), 3);
  // The clamped output still parses cleanly.
  EXPECT_TRUE(json::parse(os.str()).has_value());
}

TEST(JsonReport, FlatMetricsKeepIntegerTypes) {
  detect::ReportParams rp;
  rp.N = 4;
  rp.n = 4;
  rp.m = 10;
  std::ostringstream os;
  json::Writer w(os, 0);
  detect::write_run_report(
      w, "test:flat", rp,
      {{"lattice_cuts", std::int64_t{100000}},
       {"token_work", std::uint64_t{10000000}},
       {"blowup", 0.5}},
      /*bound=*/1e7, /*ratio=*/std::nullopt);
  const auto v = json::parse(os.str());
  ASSERT_TRUE(v.has_value());
  const auto* metrics = v->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("lattice_cuts")->kind, json::Value::Kind::kInt);
  EXPECT_EQ(metrics->find("lattice_cuts")->integer, 100000);
  EXPECT_EQ(metrics->find("token_work")->integer, 10000000);
  EXPECT_DOUBLE_EQ(metrics->find("blowup")->as_number(), 0.5);
  // The double-typed bound also renders without exponent notation now.
  EXPECT_EQ(v->find("bound")->kind, json::Value::Kind::kInt);
  EXPECT_EQ(v->find("bound")->integer, 10000000);
  EXPECT_EQ(os.str().find("e+"), std::string::npos);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  const std::string doc =
      R"({"schema":"x/1","n":3,"pi":3.25,"ok":true,"none":null,)"
      R"("arr":[1,2,3],"nested":{"deep":[{"a":1}]}})";
  const auto v = json::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->dump(0), doc);  // parse -> dump is the identity on our output
  ASSERT_NE(v->find("n"), nullptr);
  EXPECT_EQ(v->find("n")->integer, 3);
  EXPECT_DOUBLE_EQ(v->find("pi")->as_number(), 3.25);
  EXPECT_EQ(v->find("arr")->array.size(), 3u);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,2", R"({"a":})", "tru", "1 2", R"({"a" 1})",
        R"({"a":1,})", "[1,]", "\"unterminated"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
}

TEST(JsonParse, KeepsInsertionOrderAndErases) {
  auto v = json::parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "z");
  EXPECT_EQ(v->object[2].first, "m");
  EXPECT_TRUE(v->erase("a"));
  EXPECT_FALSE(v->erase("a"));
  EXPECT_EQ(v->dump(0), R"({"z":1,"m":3})");
}

TEST(JsonReport, MetricsExportCarriesAllKinds) {
  Metrics m(2);
  m.at(ProcessId(0))
      .messages_sent[static_cast<std::size_t>(MsgKind::kToken)] = 4;
  m.at(ProcessId(1)).work_units = 7;
  const auto s = render([&](json::Writer& w) { m.write_json(w); }, 0);
  const auto v = json::parse(s);
  ASSERT_TRUE(v.has_value());
  const auto* msgs = v->find("messages");
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->find("token")->integer, 4);
  EXPECT_EQ(msgs->find("total")->integer, 4);
  EXPECT_EQ(v->find("work_units")->integer, 7);
}

TEST(JsonReport, RunReportValidatesAgainstSchema) {
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 3;
  spec.events_per_process = 15;
  spec.ensure_detectable = true;
  spec.seed = 11;
  const auto comp = workload::make_random(spec);

  detect::RunOptions o;
  o.seed = 3;
  o.latency = sim::LatencyModel::uniform(1, 6);
  const auto r = detect::run_token_vc(comp, o);

  detect::ReportParams rp;
  rp.N = 5;
  rp.n = 3;
  rp.m = comp.max_messages_per_process();
  rp.seed = 3;
  const auto s = detect::run_report_string("test:token", rp, r, 100.0, 0.5);
  const auto v = json::parse(s);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("schema")->string, detect::kRunReportSchema);
  EXPECT_EQ(v->find("bench")->string, "test:token");
  EXPECT_EQ(v->find("params")->find("N")->integer, 5);
  EXPECT_EQ(v->find("params")->find("seed")->integer, 3);
  const auto* metrics = v->find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* k : {"detected", "messages", "bits", "work_units",
                        "token_hops", "detect_time", "result"}) {
    EXPECT_NE(metrics->find(k), nullptr) << k;
  }
  const auto* sim = metrics->find("result")->find("sim");
  ASSERT_NE(sim, nullptr);
  EXPECT_GT(sim->find("events_processed")->integer, 0);
  EXPECT_GT(sim->find("peak_queue_depth")->integer, 0);
  EXPECT_DOUBLE_EQ(v->find("bound")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(v->find("ratio")->as_number(), 0.5);
}

TEST(JsonReport, IdenticalRunsProduceByteIdenticalReports) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 4;
  spec.events_per_process = 20;
  spec.seed = 23;
  const auto comp = workload::make_random(spec);

  detect::RunOptions o;
  o.seed = 9;
  o.latency = sim::LatencyModel::uniform(1, 6);

  detect::ReportParams rp;
  rp.N = 6;
  rp.n = 4;
  rp.m = comp.max_messages_per_process();
  rp.seed = 9;

  // Two independent end-to-end runs. With wall-clock excluded the rendered
  // record is a pure function of (computation, seed, latency model).
  const auto a = detect::run_report_string(
      "det", rp, detect::run_token_vc(comp, o), std::nullopt, std::nullopt,
      /*include_wall_clock=*/false);
  const auto b = detect::run_report_string(
      "det", rp, detect::run_token_vc(comp, o), std::nullopt, std::nullopt,
      /*include_wall_clock=*/false);
  EXPECT_EQ(a, b);

  // With wall-clock included, stripping the one nondeterministic field
  // restores byte equality.
  auto strip = [&]() {
    auto v = json::parse(detect::run_report_string(
        "det", rp, detect::run_token_vc(comp, o), std::nullopt,
        std::nullopt));
    EXPECT_TRUE(v.has_value());
    auto* metrics = const_cast<json::Value*>(v->find("metrics"));
    auto* result = const_cast<json::Value*>(metrics->find("result"));
    auto* sim = const_cast<json::Value*>(result->find("sim"));
    EXPECT_TRUE(sim->erase("wall_ms"));
    return v->dump();
  };
  EXPECT_EQ(strip(), strip());
}

TEST(JsonReport, TruncatedRunIsNamedInReportAndText) {
  workload::RandomSpec spec;
  spec.num_processes = 5;
  spec.num_predicate = 3;
  spec.events_per_process = 15;
  spec.ensure_detectable = true;
  spec.seed = 11;
  const auto comp = workload::make_random(spec);
  const auto preds = comp.predicate_processes();
  const std::vector<ProcessId> slot_to_pid(preds.begin(), preds.end());

  detect::RunOptions o;
  o.seed = 3;
  detect::ReportParams rp;
  rp.N = 5;
  rp.n = 3;
  rp.m = comp.max_messages_per_process();
  rp.seed = 3;

  // The same token run twice: under its own event budget, and with the
  // budget cut by hand to 10 events, far short of the run.
  auto run = [&](std::int64_t max_events) {
    sim::NetworkConfig cfg = detect::network_config(o, comp);
    if (max_events >= 0) cfg.max_events = max_events;
    sim::Network net(cfg);
    const auto shared = detect::install_token_vc_monitors(net, slot_to_pid);
    return detect::replay(net, comp, app::AppDriverOptions{}, o, *shared);
  };
  const auto text = [](const detect::DetectionResult& r) {
    std::ostringstream os;
    os << r;
    return os.str();
  };
  const auto report = [&](const detect::DetectionResult& r) {
    auto v = json::parse(detect::run_report_string(
        "test:token", rp, r, std::nullopt, std::nullopt, false));
    EXPECT_TRUE(v.has_value());
    return *v;
  };

  const auto done = run(-1);
  ASSERT_FALSE(done.truncated);
  ASSERT_TRUE(done.detected);
  EXPECT_EQ(text(done).find("truncated"), std::string::npos);
  EXPECT_EQ(report(done).find("metrics")->find("truncated"), nullptr);

  const auto cut = run(10);
  EXPECT_TRUE(cut.truncated);
  EXPECT_FALSE(cut.detected);
  EXPECT_EQ(cut.sim_events, 10);
  const std::string t = text(cut);
  EXPECT_EQ(t.rfind("inconclusive ", 0), 0u) << t;
  EXPECT_NE(t.find(" (truncated)"), std::string::npos) << t;
  const auto v = report(cut);
  const auto* truncated = v.find("metrics")->find("truncated");
  ASSERT_NE(truncated, nullptr);
  EXPECT_EQ(truncated->integer, 1);
}

}  // namespace
}  // namespace wcp

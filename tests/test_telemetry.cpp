// Telemetry subsystem tests: metrics registry (collisions, percentiles,
// exports), the JSON parser, the Chrome-trace writer (round-trip parse),
// transaction-lifecycle hop attribution on a full platform, kernel
// self-profiling counters, WindowedBytes trailing-window flush and the
// error/trace log macros.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "fault/fault_plan.hpp"
#include "qos/adaptive_controller.hpp"
#include "qos/latency_monitor.hpp"
#include "qos/regulator.hpp"
#include "qos/regulator_watchdog.hpp"
#include "sim/histogram.hpp"
#include "sim/stats.hpp"
#include "soc/soc.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndTyped) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("dram.ch0.row_hits");
  c.add(3);
  reg.counter("zzz.other");  // later registration must not move handles
  reg.gauge("dram.bus_utilization").set(0.5);
  EXPECT_EQ(reg.counter("dram.ch0.row_hits").value(), 3u);
  EXPECT_EQ(&reg.counter("dram.ch0.row_hits"), &c);
  EXPECT_TRUE(reg.contains("dram.bus_utilization"));
  EXPECT_FALSE(reg.contains("absent"));
  EXPECT_DOUBLE_EQ(reg.scalar("dram.ch0.row_hits"), 3.0);
  EXPECT_DOUBLE_EQ(reg.scalar("dram.bus_utilization"), 0.5);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, NameCollisionAcrossTypesThrows) {
  telemetry::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), ConfigError);
  EXPECT_THROW(reg.histogram("x"), ConfigError);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), ConfigError);
  EXPECT_THROW((void)reg.scalar("h"), ConfigError);  // histogram is not a scalar
  EXPECT_THROW((void)reg.scalar("absent"), ConfigError);
  EXPECT_THROW(reg.counter(""), ConfigError);
}

TEST(MetricsRegistry, HistogramPercentiles) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram& h = reg.histogram("lat");
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-linear buckets: bounded relative error.
  EXPECT_NEAR(static_cast<double>(h.p50()), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.p90()), 900.0, 900.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.p99()), 990.0, 990.0 * 0.05);
  EXPECT_NEAR(h.mean(), 500.5, 1.0);
}

TEST(MetricsRegistry, JsonSnapshotRoundTrips) {
  telemetry::MetricsRegistry reg;
  reg.counter("a.count").add(42);
  reg.gauge("b.gauge").set(2.5);
  telemetry::Histogram& h = reg.histogram("c.hist");
  h.record(10);
  h.record(20);
  std::ostringstream os;
  reg.write_json(os, 12345);

  const util::JsonValue doc = util::JsonValue::parse(os.str());
  EXPECT_DOUBLE_EQ(doc.at("time_ps").as_number(), 12345.0);
  const util::JsonValue& m = doc.at("metrics");
  EXPECT_EQ(m.at("a.count").at("type").as_string(), "counter");
  EXPECT_DOUBLE_EQ(m.at("a.count").at("value").as_number(), 42.0);
  EXPECT_EQ(m.at("b.gauge").at("type").as_string(), "gauge");
  EXPECT_DOUBLE_EQ(m.at("b.gauge").at("value").as_number(), 2.5);
  EXPECT_EQ(m.at("c.hist").at("type").as_string(), "histogram");
  EXPECT_DOUBLE_EQ(m.at("c.hist").at("count").as_number(), 2.0);
  EXPECT_TRUE(m.at("c.hist").contains("p99"));
}

TEST(MetricsRegistry, CsvSnapshotHasHeaderAndRows) {
  telemetry::MetricsRegistry reg;
  reg.counter("a").add(1);
  reg.histogram("b").record(5);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("name,type,count,value,p50,p90,p99,p999,max"),
            std::string::npos);
  EXPECT_NE(csv.find("a,counter"), std::string::npos);
  EXPECT_NE(csv.find("b,histogram"), std::string::npos);
}

// --- JSON parser ----------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  const util::JsonValue v = util::JsonValue::parse(
      R"({"a": [1, -2.5e2, true, false, null], "b": {"c": "x\n\"y\""}})");
  EXPECT_DOUBLE_EQ(v.at("a").at(0).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("a").at(1).as_number(), -250.0);
  EXPECT_TRUE(v.at("a").at(2).as_bool());
  EXPECT_FALSE(v.at("a").at(3).as_bool());
  EXPECT_TRUE(v.at("a").at(4).is_null());
  EXPECT_EQ(v.at("a").size(), 5u);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x\n\"y\"");
}

TEST(Json, ParsesUnicodeEscapes) {
  const util::JsonValue v = util::JsonValue::parse("[\"A\\u00e9\\u2192\"]");
  EXPECT_EQ(v.at(std::size_t{0}).as_string(), "A\xc3\xa9\xe2\x86\x92");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(util::JsonValue::parse(""), ConfigError);
  EXPECT_THROW(util::JsonValue::parse("{"), ConfigError);
  EXPECT_THROW(util::JsonValue::parse("[1,]"), ConfigError);
  EXPECT_THROW(util::JsonValue::parse("{\"a\":1} garbage"), ConfigError);
  EXPECT_THROW(util::JsonValue::parse("nul"), ConfigError);
  EXPECT_THROW(util::JsonValue::parse("\"unterminated"), ConfigError);
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const util::JsonValue v = util::JsonValue::parse("[1]");
  EXPECT_THROW((void)v.as_object(), ConfigError);
  EXPECT_THROW((void)v.at("k"), ConfigError);
  EXPECT_THROW((void)v.at(std::size_t{5}), ConfigError);
  EXPECT_THROW((void)v.at(std::size_t{0}).as_string(), ConfigError);
}

TEST(Json, EscapeProducesValidStrings) {
  const std::string escaped = util::json_escape("a\"b\\c\n\t\x01");
  const util::JsonValue v = util::JsonValue::parse("\"" + escaped + "\"");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\t\x01");
}

// --- Trace categories and writer ------------------------------------------

TEST(Trace, ParseCategories) {
  EXPECT_EQ(telemetry::parse_categories(""), telemetry::kAllCategories);
  EXPECT_EQ(telemetry::parse_categories("all"), telemetry::kAllCategories);
  EXPECT_EQ(telemetry::parse_categories("port"),
            telemetry::cat_bit(telemetry::Cat::kPort));
  EXPECT_EQ(telemetry::parse_categories("dram,qos"),
            telemetry::cat_bit(telemetry::Cat::kDram) |
                telemetry::cat_bit(telemetry::Cat::kQos));
  EXPECT_THROW((void)telemetry::parse_categories("bogus"), ConfigError);
}

TEST(Trace, WriterRoundTripsThroughParser) {
  const std::string path = "test_trace_writer.json";
  {
    telemetry::TraceWriter w(path, telemetry::kAllCategories);
    const telemetry::TrackId dram =
        w.track(telemetry::Cat::kDram, "ch0");
    const telemetry::TrackId port =
        w.track(telemetry::Cat::kPort, "cpu");
    w.complete(dram, "rd", 1'000'000, 2'000'000);  // 1 us at 2 us dur
    w.counter(dram, "read_q", 3'000'000, 7.0);
    w.instant(port, "mark", 4'000'000);
    w.async_begin(port, "txn", 42, 1'000'000);
    w.async_end(port, "txn", 42, 5'000'000, "{\"bytes\":64}");
    w.finish();
    EXPECT_EQ(w.events_written(), 9u);  // 4 metadata + 5 events
  }
  const util::JsonValue doc = util::JsonValue::parse(slurp(path));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 9u);

  int meta = 0, complete = 0, counters = 0, instants = 0, asyncs = 0;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      ++meta;
    } else if (ph == "X") {
      ++complete;
      EXPECT_EQ(e.at("name").as_string(), "rd");
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 1.0);   // ps -> us
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 2.0);
    } else if (ph == "C") {
      ++counters;
      // Series name is qualified with the owning track.
      EXPECT_EQ(e.at("name").as_string(), "ch0.read_q");
      EXPECT_DOUBLE_EQ(e.at("args").at("read_q").as_number(), 7.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "b" || ph == "e") {
      ++asyncs;
      EXPECT_EQ(e.at("id").as_string(), "42");
      if (ph == "e") {
        EXPECT_DOUBLE_EQ(e.at("args").at("bytes").as_number(), 64.0);
      }
    }
  }
  EXPECT_EQ(meta, 4);  // 2 process_name + 2 thread_name
  EXPECT_EQ(complete, 1);
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(asyncs, 2);
  std::remove(path.c_str());
}

TEST(Trace, CategoryFilterSuppressesTracks) {
  const std::string path = "test_trace_filter.json";
  {
    telemetry::TraceWriter w(path, telemetry::parse_categories("dram"));
    const telemetry::TrackId qos = w.track(telemetry::Cat::kQos, "reg");
    const telemetry::TrackId dram = w.track(telemetry::Cat::kDram, "ch0");
    EXPECT_FALSE(qos.valid());
    EXPECT_TRUE(dram.valid());
    w.complete(qos, "throttled", 0, 100);  // silently dropped
    w.complete(dram, "rd", 0, 100);
    w.finish();
  }
  const util::JsonValue doc = util::JsonValue::parse(slurp(path));
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M") {
      continue;  // metadata events carry no category
    }
    EXPECT_NE(e.at("cat").as_string(), "qos");
  }
  std::remove(path.c_str());
}

// --- Full-platform round trip ---------------------------------------------

TEST(Telemetry, SocTraceAndLifecycleRoundTrip) {
  const std::string path = "test_soc_trace.json";
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = 2;
  wl::PointerChaseConfig pc;
  pc.accesses_per_iteration = 256;
  chip.add_core(cc, wl::make_pointer_chase(pc));
  wl::TrafficGenConfig tg;
  tg.name = "agg0";
  tg.base = 0x8000'0000;
  chip.add_traffic_gen(0, tg);
  // Tight budget so the regulator actually throttles.
  chip.qos_block(1).regulator->set_rate(50e6);
  chip.qos_block(1).regulator->set_enabled(true);

  chip.open_trace(path);
  EXPECT_TRUE(chip.run_until_cores_finished(200 * sim::kPsPerMs));
  chip.finish_telemetry();

  // Per-hop histograms were filled for every completed transaction.
  telemetry::MetricsRegistry& reg = chip.collect_metrics();
  const telemetry::Histogram& total =
      reg.histogram("port.cpu.hop.total_ps");
  EXPECT_EQ(total.count(),
            static_cast<std::uint64_t>(reg.scalar("port.cpu.txns")));
  EXPECT_GT(total.count(), 0u);
  EXPECT_GT(reg.histogram("port.hp0.hop.dram_service_ps").count(), 0u);
  EXPECT_GT(reg.scalar("sim.events_dispatched"), 0.0);
  EXPECT_GT(reg.scalar("qos.hp0.reg.exhausted_windows"), 0.0);

  // The trace file parses and contains all span families.
  const util::JsonValue doc = util::JsonValue::parse(slurp(path));
  bool port_span = false, dram_burst = false, throttled = false;
  bool kernel_counter = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      continue;
    }
    const std::string cat = e.at("cat").as_string();
    if (cat == "port" && ph == "e") {
      port_span = true;
      EXPECT_TRUE(e.at("args").contains("dram_service_ns"));
    } else if (cat == "dram" && ph == "X") {
      dram_burst = true;
      EXPECT_GT(e.at("dur").as_number(), 0.0);
    } else if (cat == "qos" && ph == "X" &&
               e.at("name").as_string() == "throttled") {
      throttled = true;
    } else if (cat == "kernel" && ph == "C") {
      kernel_counter = true;
    }
  }
  EXPECT_TRUE(port_span);
  EXPECT_TRUE(dram_burst);
  EXPECT_TRUE(throttled);
  EXPECT_TRUE(kernel_counter);
  std::remove(path.c_str());
}

TEST(Telemetry, MetricsJsonFromSocParses) {
  const std::string path = "test_soc_metrics.json";
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.name = "agg0";
  tg.base = 0x8000'0000;
  chip.add_traffic_gen(0, tg);
  chip.enable_lifecycle_metrics();
  chip.run_for(2 * sim::kPsPerMs);
  chip.collect_metrics().save_json(path, chip.now());

  const util::JsonValue doc = util::JsonValue::parse(slurp(path));
  const util::JsonValue& m = doc.at("metrics");
  EXPECT_EQ(m.at("dram.reads").at("type").as_string(), "counter");
  EXPECT_EQ(m.at("port.hp0.hop.total_ps").at("type").as_string(),
            "histogram");
  EXPECT_GT(m.at("port.hp0.hop.total_ps").at("count").as_number(), 0.0);
  std::remove(path.c_str());
}

TEST(Telemetry, HubRejectsSecondTrace) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  chip.open_trace("test_hub_first.json");
  EXPECT_THROW(chip.open_trace("test_hub_second.json"), ConfigError);
  chip.finish_telemetry();
  std::remove("test_hub_first.json");
}

// --- Kernel self-profiling -------------------------------------------------

namespace {
class TickerOnce final : public sim::Clocked {
 public:
  using sim::Clocked::Clocked;
  bool tick(sim::Cycles) override { return ++n_ < 5; }
  int n_ = 0;
};
}  // namespace

TEST(Telemetry, KernelProfilingCounters) {
  sim::Simulator sim;
  const sim::ClockDomain clk = sim::ClockDomain::from_mhz("clk", 100);
  TickerOnce t(sim, clk, "ticker");
  int fired = 0;
  sim.schedule_at(1000, [&]() { ++fired; });
  sim.schedule_at(2000, [&]() { ++fired; });
  sim.run_until(sim::kPsPerUs);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_dispatched(), 2u);
  EXPECT_EQ(t.ticks_fired(), 5u);
  EXPECT_GE(sim.max_event_queue(), 2u);
  EXPECT_EQ(sim.event_queue_size(), 0u);
  EXPECT_GT(sim.wall_ns(), 0u);
  EXPECT_GT(sim.wall_s_per_sim_s(), 0.0);
}

// --- WindowedBytes trailing-window flush -----------------------------------

TEST(WindowedBytes, FlushClosesTrailingWindows) {
  sim::WindowedBytes wb(1000);
  wb.add(100, 500);    // window [0,1000)
  wb.add(2500, 300);   // closes [0,1000) and [1000,2000)
  ASSERT_EQ(wb.samples().size(), 2u);
  EXPECT_EQ(wb.samples()[0], 500u);
  EXPECT_EQ(wb.samples()[1], 0u);
  // The trailing partial window is only visible after flush().
  wb.flush(3000);  // boundary exactly at a window end
  ASSERT_EQ(wb.samples().size(), 3u);
  EXPECT_EQ(wb.samples()[2], 300u);
  EXPECT_EQ(wb.total_bytes(), 800u);
  // Idempotent at the same time; advances further on a later flush.
  wb.flush(3000);
  EXPECT_EQ(wb.samples().size(), 3u);
  // A partial trailing window stays open: only complete windows close.
  wb.flush(5500);
  EXPECT_EQ(wb.samples().size(), 5u);
  wb.flush(6000);
  EXPECT_EQ(wb.samples().size(), 6u);
  EXPECT_EQ(wb.max_window_bytes(), 500u);
}

// --- Histogram empty/merge semantics ---------------------------------------

TEST(SimHistogram, EmptyQuantilesAreZeroNotNan) {
  sim::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(SimHistogram, MergeMatchesSingleHistogramAndEmptyIsNoOp) {
  sim::Histogram lo;
  sim::Histogram hi;
  sim::Histogram all;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    lo.record(v);
    all.record(v);
  }
  for (std::uint64_t v = 101; v <= 200; ++v) {
    hi.record(v);
    all.record(v);
  }
  sim::Histogram merged = lo;
  merged.merge(hi);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_DOUBLE_EQ(merged.mean(), all.mean());
  EXPECT_EQ(merged.p50(), all.p50());
  EXPECT_EQ(merged.p99(), all.p99());
  // Merging an empty histogram changes nothing.
  const sim::Histogram empty;
  sim::Histogram copy = merged;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), merged.count());
  EXPECT_EQ(copy.p99(), merged.p99());
  // Merging INTO an empty histogram adopts the other side wholesale.
  sim::Histogram adopted;
  adopted.merge(all);
  EXPECT_EQ(adopted.count(), all.count());
  EXPECT_EQ(adopted.min(), all.min());
  EXPECT_EQ(adopted.max(), all.max());
  EXPECT_EQ(adopted.p50(), all.p50());
}

// --- TimeSeriesRecorder -----------------------------------------------------

TEST(TimeSeries, RolloverAlignmentAndPartialTailWindow) {
  sim::Simulator s;
  telemetry::TimeSeriesConfig tc;
  tc.window_ps = 100 * sim::kPsPerUs;
  telemetry::TimeSeriesRecorder ts(s, tc);
  // Gauge probe: current simulated time in microseconds.
  ASSERT_TRUE(ts.add_series(
      "t.gauge", telemetry::TimeSeriesRecorder::Kind::kGauge,
      [](sim::TimePs now) {
        return static_cast<double>(now) / sim::kPsPerUs;
      }));
  ts.start();
  s.run_until(250 * sim::kPsPerUs);
  ts.finish(s.now());
  // Two full windows plus the [200us, 250us) tail.
  EXPECT_EQ(ts.windows_sampled(), 3u);
  EXPECT_EQ(ts.windows_dropped(), 0u);
  const auto samples = ts.samples(0);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].start, 0u);
  EXPECT_EQ(samples[0].end, 100 * sim::kPsPerUs);
  EXPECT_EQ(samples[1].start, 100 * sim::kPsPerUs);
  EXPECT_EQ(samples[1].end, 200 * sim::kPsPerUs);
  EXPECT_EQ(samples[2].start, 200 * sim::kPsPerUs);
  EXPECT_EQ(samples[2].end, 250 * sim::kPsPerUs);
  EXPECT_DOUBLE_EQ(samples[0].value, 100.0);  // gauge: value at window end
  EXPECT_DOUBLE_EQ(samples[2].value, 250.0);
  // finish() is idempotent for a given now.
  ts.finish(s.now());
  EXPECT_EQ(ts.windows_sampled(), 3u);
}

TEST(TimeSeries, DeltaSeriesReportPerWindowGrowth) {
  sim::Simulator s;
  telemetry::TimeSeriesConfig tc;
  tc.window_ps = 100 * sim::kPsPerUs;
  telemetry::TimeSeriesRecorder ts(s, tc);
  // The same monotone probe registered under both kinds: the gauge samples
  // the cumulative value, the delta samples per-window growth.
  const auto probe = [](sim::TimePs now) {
    return static_cast<double>(now) / sim::kPsPerUs;
  };
  ASSERT_TRUE(ts.add_series("t.cum",
                            telemetry::TimeSeriesRecorder::Kind::kGauge,
                            probe));
  ASSERT_TRUE(ts.add_series("t.rate",
                            telemetry::TimeSeriesRecorder::Kind::kDelta,
                            probe));
  ts.start();
  s.run_until(250 * sim::kPsPerUs);
  ts.finish(s.now());
  const auto cum = ts.samples(0);
  const auto rate = ts.samples(1);
  ASSERT_EQ(cum.size(), 3u);
  ASSERT_EQ(rate.size(), 3u);
  EXPECT_DOUBLE_EQ(cum[0].value, 100.0);
  EXPECT_DOUBLE_EQ(cum[1].value, 200.0);
  EXPECT_DOUBLE_EQ(cum[2].value, 250.0);
  EXPECT_DOUBLE_EQ(rate[0].value, 100.0);
  EXPECT_DOUBLE_EQ(rate[1].value, 100.0);
  EXPECT_DOUBLE_EQ(rate[2].value, 50.0);  // partial tail: partial growth
}

TEST(TimeSeries, GlobFilterSelectsSeries) {
  sim::Simulator s;
  telemetry::TimeSeriesConfig tc;
  tc.filter = "qos.*,port.cpu.*";
  telemetry::TimeSeriesRecorder ts(s, tc);
  const auto probe = [](sim::TimePs) { return 0.0; };
  EXPECT_TRUE(ts.admits("qos.hp0.credit"));
  EXPECT_TRUE(ts.admits("port.cpu.bytes"));
  EXPECT_FALSE(ts.admits("dram.payload_bytes"));
  EXPECT_FALSE(ts.admits("port.acc0.bytes"));
  EXPECT_TRUE(ts.add_series("qos.hp0.credit",
                            telemetry::TimeSeriesRecorder::Kind::kGauge,
                            probe));
  EXPECT_FALSE(ts.add_series("dram.payload_bytes",
                             telemetry::TimeSeriesRecorder::Kind::kDelta,
                             probe));
  EXPECT_EQ(ts.series_count(), 1u);
  // An empty filter admits everything.
  telemetry::TimeSeriesRecorder open(s, telemetry::TimeSeriesConfig{});
  EXPECT_TRUE(open.admits("qos.hp0.credit"));
  EXPECT_TRUE(open.admits("anything.at.all"));
  EXPECT_TRUE(open.add_series("dram.payload_bytes",
                              telemetry::TimeSeriesRecorder::Kind::kDelta,
                              probe));
}

TEST(TimeSeries, RingBelowCapacityHoldsOnlyTheSampledWindows) {
  // Ten windows recorded into rings of 10, 11 and the default 4096
  // windows: none evicts, and all export the same rows, window 0 first.
  std::string csv_ref;
  std::string json_ref;
  for (const std::size_t capacity : {10ul, 11ul, 4096ul}) {
    SCOPED_TRACE(capacity);
    sim::Simulator s;
    telemetry::TimeSeriesConfig tc;
    tc.capacity = capacity;
    telemetry::TimeSeriesRecorder ts(s, tc);
    ASSERT_TRUE(ts.add_series(
        "t.gauge", telemetry::TimeSeriesRecorder::Kind::kGauge,
        [](sim::TimePs now) {
          return static_cast<double>(now) / sim::kPsPerUs;
        }));
    ASSERT_TRUE(ts.add_series("t.delta",
                              telemetry::TimeSeriesRecorder::Kind::kDelta,
                              [](sim::TimePs now) {
                                return static_cast<double>(now) / 1e6;
                              }));
    ts.start();
    s.run_until(1000 * sim::kPsPerUs);
    ts.finish(s.now());
    EXPECT_EQ(ts.windows_held(), 10u);
    EXPECT_EQ(ts.windows_dropped(), 0u);
    std::ostringstream csv;
    ts.write_csv(csv);
    std::ostringstream json;
    ts.write_json(json, nullptr);
    if (csv_ref.empty()) {
      std::string want = "series,window,start_ps,end_ps,value\n";
      for (std::uint64_t w = 0; w < 10; ++w) {
        const std::string start = std::to_string(w * 100 * sim::kPsPerUs);
        const std::string end =
            std::to_string((w + 1) * 100 * sim::kPsPerUs);
        want += "t.gauge," + std::to_string(w) + "," + start + "," + end +
                "," + std::to_string((w + 1) * 100) + "\n";
        want += "t.delta," + std::to_string(w) + "," + start + "," + end +
                ",100\n";
      }
      EXPECT_EQ(csv.str(), want);
      csv_ref = csv.str();
      json_ref = json.str();
    } else {
      EXPECT_EQ(csv.str(), csv_ref);
      EXPECT_EQ(json.str(), json_ref);
    }
  }
}

TEST(TimeSeries, EmptySelectionIsANoOp) {
  sim::Simulator s;
  telemetry::TimeSeriesConfig tc;
  tc.filter = "matches.nothing.*";
  telemetry::TimeSeriesRecorder ts(s, tc);
  EXPECT_FALSE(ts.add_series("qos.hp0.credit",
                             telemetry::TimeSeriesRecorder::Kind::kGauge,
                             [](sim::TimePs) { return 1.0; }));
  ts.start();  // schedules nothing
  const std::uint64_t before = s.events_dispatched();
  s.run_until(1 * sim::kPsPerMs);
  EXPECT_EQ(s.events_dispatched(), before);
  ts.finish(s.now());
  EXPECT_EQ(ts.windows_sampled(), 0u);
  std::ostringstream csv;
  ts.write_csv(csv);
  EXPECT_EQ(csv.str(), "series,window,start_ps,end_ps,value\n");
}

TEST(TimeSeries, RingEvictsOldestButSummariesStayExact) {
  sim::Simulator s;
  telemetry::TimeSeriesConfig tc;
  tc.window_ps = 100 * sim::kPsPerUs;
  tc.capacity = 4;
  telemetry::TimeSeriesRecorder ts(s, tc);
  // Window i (1-based end time in 100us units) samples value 100*i.
  ASSERT_TRUE(ts.add_series(
      "t.gauge", telemetry::TimeSeriesRecorder::Kind::kGauge,
      [](sim::TimePs now) {
        return static_cast<double>(now) / sim::kPsPerUs;
      }));
  ts.start();
  s.run_until(1000 * sim::kPsPerUs);
  ts.finish(s.now());
  EXPECT_EQ(ts.windows_sampled(), 10u);
  EXPECT_EQ(ts.windows_dropped(), 6u);
  EXPECT_EQ(ts.windows_held(), 4u);
  const auto samples = ts.samples(0);
  ASSERT_EQ(samples.size(), 4u);
  // Oldest retained window is the 7th (starts at 600us).
  // The ring wrapped twice; the held windows still come out oldest
  // first, windows 7..10.
  for (std::size_t w = 0; w < samples.size(); ++w) {
    EXPECT_EQ(samples[w].start, (600 + 100 * w) * sim::kPsPerUs) << w;
    EXPECT_DOUBLE_EQ(samples[w].value, 700.0 + 100.0 * static_cast<double>(w))
        << w;
  }
  // CSV window numbering stays global across eviction.
  std::ostringstream csv;
  ts.write_csv(csv);
  EXPECT_NE(csv.str().find("t.gauge,6,"), std::string::npos);
  EXPECT_EQ(csv.str().find("t.gauge,5,"), std::string::npos);
  // The histogram summary still covers all ten windows, evicted or not.
  EXPECT_EQ(ts.summary(0).count(), 10u);
  EXPECT_EQ(ts.summary(0).min(), 100u);
  EXPECT_EQ(ts.summary(0).max(), 1000u);
}

TEST(TimeSeries, CsvAndJsonExportFormats) {
  sim::Simulator s;
  telemetry::TimeSeriesConfig tc;
  tc.window_ps = 100 * sim::kPsPerUs;
  telemetry::TimeSeriesRecorder ts(s, tc);
  ASSERT_TRUE(ts.add_series(
      "a.gauge", telemetry::TimeSeriesRecorder::Kind::kGauge,
      [](sim::TimePs now) {
        return static_cast<double>(now) / sim::kPsPerUs;
      }));
  ASSERT_TRUE(ts.add_series("b.delta",
                            telemetry::TimeSeriesRecorder::Kind::kDelta,
                            [](sim::TimePs now) {
                              return static_cast<double>(now) / sim::kPsPerUs;
                            }));
  ts.start();
  s.run_until(200 * sim::kPsPerUs);
  ts.finish(s.now());
  // CSV: window-major, registration order, optional row/header prefixes.
  std::ostringstream csv;
  ts.write_csv(csv, true, "p0,", "point,");
  EXPECT_EQ(csv.str(),
            "point,series,window,start_ps,end_ps,value\n"
            "p0,a.gauge,0,0,100000000,100\n"
            "p0,b.delta,0,0,100000000,100\n"
            "p0,a.gauge,1,100000000,200000000,200\n"
            "p0,b.delta,1,100000000,200000000,100\n");
  // JSON: parseable, carries the manifest, kinds and summaries.
  telemetry::RunManifest m;
  m.tool = "fgqos_sim";
  m.scenario = "unit test";
  m.seed = 7;
  m.build = telemetry::RunManifest::build_flavor();
  std::ostringstream js;
  ts.write_json(js, &m);
  const util::JsonValue doc = util::JsonValue::parse(js.str());
  EXPECT_EQ(doc.at("manifest").at("tool").as_string(), "fgqos_sim");
  EXPECT_EQ(doc.at("manifest").at("seed").as_uint64(), 7u);
  EXPECT_EQ(doc.at("window_ps").as_uint64(),
            static_cast<std::uint64_t>(100 * sim::kPsPerUs));
  EXPECT_EQ(doc.at("windows_sampled").as_uint64(), 2u);
  const util::JsonValue& series = doc.at("series");
  EXPECT_EQ(series.at("a.gauge").at("kind").as_string(), "gauge");
  EXPECT_EQ(series.at("b.delta").at("kind").as_string(), "delta");
  EXPECT_EQ(series.at("a.gauge").at("samples").as_array().size(), 2u);
  EXPECT_EQ(series.at("a.gauge").at("summary").at("count").as_uint64(), 2u);
  EXPECT_EQ(series.at("b.delta").at("summary").at("max").as_uint64(), 100u);
}

TEST(TimeSeries, SocCaptureIsDeterministicAcrossIdenticalRuns) {
  const auto run_once = []() {
    soc::SocConfig cfg;
    soc::Soc chip(cfg);
    wl::TrafficGenConfig tg;
    tg.name = "g0";
    chip.add_traffic_gen(0, tg);
    telemetry::TimeSeriesConfig tc;
    tc.window_ps = 100 * sim::kPsPerUs;
    chip.enable_timeseries(tc);
    chip.run_for(1 * sim::kPsPerMs);
    chip.finish_telemetry();
    std::ostringstream csv;
    chip.timeseries()->write_csv(csv);
    return csv.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
  // The standard platform series registered and produced windows.
  EXPECT_NE(first.find("dram.payload_bytes"), std::string::npos);
  EXPECT_NE(first.find("qos."), std::string::npos);
}

// --- DecisionJournal --------------------------------------------------------

TEST(Journal, RecordsAreCausallyOrderedWithMonotoneSeq) {
  telemetry::DecisionJournal j;
  j.record(100, "qos.a", "set_budget", 1.0, 2.0, "host_write");
  j.record(100, "qos.b", "set_budget", 3.0, 4.0, "host_write");
  j.record(200, "wd", "degrade", 2048.0, 256.0, "monitor_stale",
           "regulator=qos.a");
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.entries()[0].seq, 0u);
  EXPECT_EQ(j.entries()[1].seq, 1u);
  EXPECT_EQ(j.entries()[2].seq, 2u);
  // Ties at equal timestamps keep append order.
  EXPECT_EQ(j.entries()[0].component, "qos.a");
  EXPECT_EQ(j.entries()[1].component, "qos.b");
  EXPECT_EQ(j.entries()[2].detail, "regulator=qos.a");
  EXPECT_EQ(j.dropped(), 0u);
}

TEST(Journal, CapacityBoundsMemoryAndCountsOverflow) {
  telemetry::DecisionJournal j(2);
  for (int i = 0; i < 5; ++i) {
    j.record(static_cast<sim::TimePs>(i), "c", "act",
             static_cast<double>(i), static_cast<double>(i + 1), "cause");
  }
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.recorded(), 5u);
  EXPECT_EQ(j.dropped(), 3u);
  std::ostringstream os;
  j.write_jsonl(os, nullptr);
  EXPECT_NE(os.str().find("{\"dropped\":3}"), std::string::npos);
  // The retained entries are the oldest (append order, no eviction).
  EXPECT_EQ(j.entries()[0].at, 0u);
  EXPECT_EQ(j.entries()[1].at, 1u);
  EXPECT_THROW(telemetry::DecisionJournal bad(0), ConfigError);
}

TEST(Journal, JsonlRoundTripsThroughTheJsonParser) {
  telemetry::DecisionJournal j;
  j.record(5 * sim::kPsPerUs, "qos.hp0.reg", "set_budget", 4096.0, 1024.0,
           "host_write");
  j.record(7 * sim::kPsPerUs, "sla.cpu", "sla_trip", 1000.0, 2345.5,
           "read_p99", "measured=2345.5 \"quoted\"");
  telemetry::RunManifest m;
  m.tool = "fgqos_sim";
  m.seed = 42;
  std::ostringstream os;
  j.write_jsonl(os, &m);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(util::JsonValue::parse(line).at("manifest").at("seed").as_uint64(),
            42u);
  ASSERT_TRUE(std::getline(is, line));
  const util::JsonValue e0 = util::JsonValue::parse(line);
  EXPECT_EQ(e0.at("seq").as_uint64(), 0u);
  EXPECT_EQ(e0.at("at_ps").as_uint64(),
            static_cast<std::uint64_t>(5 * sim::kPsPerUs));
  EXPECT_EQ(e0.at("component").as_string(), "qos.hp0.reg");
  EXPECT_EQ(e0.at("action").as_string(), "set_budget");
  EXPECT_DOUBLE_EQ(e0.at("old").as_number(), 4096.0);
  EXPECT_DOUBLE_EQ(e0.at("new").as_number(), 1024.0);
  EXPECT_EQ(e0.at("cause").as_string(), "host_write");
  EXPECT_FALSE(e0.contains("detail"));  // empty detail is omitted
  ASSERT_TRUE(std::getline(is, line));
  const util::JsonValue e1 = util::JsonValue::parse(line);
  EXPECT_DOUBLE_EQ(e1.at("new").as_number(), 2345.5);
  EXPECT_EQ(e1.at("detail").as_string(), "measured=2345.5 \"quoted\"");
  EXPECT_FALSE(std::getline(is, line));  // no dropped trailer when none
}

TEST(Journal, RegulatorWritesAreJournaledOnlyOnChange) {
  sim::Simulator s;
  telemetry::DecisionJournal j;
  qos::RegulatorConfig rc;
  rc.name = "qos.hp0.reg";
  qos::Regulator reg(s, rc);
  reg.set_journal(&j);
  reg.set_budget(rc.budget_bytes);  // no change: not journaled
  reg.set_budget(8192);
  reg.set_window(2 * sim::kPsPerUs);
  reg.set_enabled(rc.enabled);  // no change: not journaled
  reg.set_enabled(!rc.enabled);
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.entries()[0].action, "set_budget");
  EXPECT_DOUBLE_EQ(j.entries()[0].old_value,
                   static_cast<double>(rc.budget_bytes));
  EXPECT_DOUBLE_EQ(j.entries()[0].new_value, 8192.0);
  EXPECT_EQ(j.entries()[0].cause, "host_write");
  EXPECT_EQ(j.entries()[1].action, "set_window");
  EXPECT_EQ(j.entries()[2].action, "set_enabled");
  EXPECT_EQ(j.entries()[0].component, "qos.hp0.reg");
}

TEST(Journal, WatchdogDegradeAndRearmEpisodeIsJournaled) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  telemetry::DecisionJournal& j = chip.enable_journal();
  wl::TrafficGenConfig tg;
  tg.name = "g0";
  chip.add_traffic_gen(0, tg);
  qos::Regulator& reg = *chip.qos_block(1).regulator;
  reg.set_budget(2048);
  reg.set_enabled(true);
  chip.arm_faults(fault::FaultPlan::from_json(R"({"faults": [
    {"kind": "monitor_freeze", "target": 1, "prob": 1,
     "start_us": 100, "end_us": 400}]})"),
                  5);
  qos::RegulatorWatchdogConfig wc;
  wc.name = "wd1";
  wc.check_period_ps = 20 * sim::kPsPerUs;
  wc.fallback_budget_bytes = 256;
  wc.stale_checks_to_trip = 2;
  wc.sane_checks_to_rearm = 3;
  chip.add_regulator_watchdog(1, wc);
  chip.run_until(600 * sim::kPsPerUs);
  const telemetry::JournalEntry* degrade = nullptr;
  const telemetry::JournalEntry* rearm = nullptr;
  for (const telemetry::JournalEntry& e : j.entries()) {
    if (e.component == "wd1" && e.action == "degrade" && degrade == nullptr) {
      degrade = &e;
    }
    if (e.component == "wd1" && e.action == "rearm" && rearm == nullptr) {
      rearm = &e;
    }
  }
  ASSERT_NE(degrade, nullptr);
  ASSERT_NE(rearm, nullptr);
  EXPECT_LT(degrade->seq, rearm->seq);
  EXPECT_EQ(degrade->cause, "monitor_stale");
  EXPECT_DOUBLE_EQ(degrade->old_value, 2048.0);
  EXPECT_DOUBLE_EQ(degrade->new_value, 256.0);
  EXPECT_EQ(rearm->cause, "monitor_recovered");
  EXPECT_DOUBLE_EQ(rearm->new_value, 2048.0);
  EXPECT_NE(degrade->detail.find("regulator="), std::string::npos);
  // The degrade/rearm budget writes themselves are journaled too (the
  // watchdog drives the same register interface hosts use).
  bool saw_fallback_write = false;
  for (const telemetry::JournalEntry& e : j.entries()) {
    if (e.action == "set_budget" && e.new_value == 256.0) {
      saw_fallback_write = true;
    }
  }
  EXPECT_TRUE(saw_fallback_write);
}

TEST(Journal, AdaptiveControllerStepsCarryObservationDetail) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  telemetry::DecisionJournal j;
  qos::LatencyMonitorConfig lc;
  qos::LatencyMonitor mon(chip.sim(), lc);  // never sees traffic: max = 0
  chip.cpu_port().add_observer(mon);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  std::vector<qos::Regulator*> regs = {chip.qos_block(1).regulator.get()};
  qos::AdaptiveControllerConfig ac;
  ac.period_ps = 100 * sim::kPsPerUs;
  qos::AdaptiveQosController ctrl(chip.sim(), ac, mon, regs);
  ctrl.set_journal(&j);
  ctrl.start();
  chip.run_for(2 * sim::kPsPerMs);
  ctrl.stop();
  ASSERT_GE(j.size(), 3u);
  EXPECT_EQ(j.entries().front().action, "start");
  EXPECT_EQ(j.entries().back().action, "stop");
  const telemetry::JournalEntry* step = nullptr;
  for (const telemetry::JournalEntry& e : j.entries()) {
    if (e.action == "increase") {
      step = &e;
      break;
    }
  }
  ASSERT_NE(step, nullptr);  // no pressure: the AIMD loop only grows
  EXPECT_EQ(step->cause, "latency_headroom");
  EXPECT_GT(step->new_value, step->old_value);
  EXPECT_NE(step->detail.find("observed_ps="), std::string::npos);
  EXPECT_NE(step->detail.find("target_ps="), std::string::npos);
}

TEST(Journal, FaultActivationIsJournaled) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  telemetry::DecisionJournal& j = chip.enable_journal();
  wl::TrafficGenConfig tg;
  tg.name = "g0";
  chip.add_traffic_gen(0, tg);
  chip.qos_block(1).regulator->set_enabled(true);
  chip.arm_faults(fault::FaultPlan::from_json(R"({"faults": [
    {"kind": "monitor_freeze", "target": 1, "prob": 1,
     "start_us": 50, "end_us": 200}]})"),
                  9);
  chip.run_until(150 * sim::kPsPerUs);
  const telemetry::JournalEntry* activation = nullptr;
  for (const telemetry::JournalEntry& e : j.entries()) {
    if (e.component == "fault") {
      activation = &e;
      break;
    }
  }
  // Only the activation edge is journaled (per-injection records would
  // swamp the journal); it lands at the first probe inside [50us, 200us).
  ASSERT_NE(activation, nullptr);
  EXPECT_EQ(activation->action, "monitor_freeze");
  EXPECT_EQ(activation->cause, "fault_plan");
  EXPECT_GE(activation->at, 50 * sim::kPsPerUs);
  EXPECT_LT(activation->at, 200 * sim::kPsPerUs);
  EXPECT_NE(activation->detail.find("target=1"), std::string::npos);
  std::uint64_t fault_entries = 0;
  for (const telemetry::JournalEntry& e : j.entries()) {
    fault_entries += e.component == "fault" ? 1u : 0u;
  }
  EXPECT_EQ(fault_entries, 1u);
}

TEST(Journal, EnablingTheJournalLeavesMetricsExportsIdentical) {
  const auto run_once = [](bool with_journal) {
    soc::SocConfig cfg;
    soc::Soc chip(cfg);
    if (with_journal) {
      chip.enable_journal();
    }
    wl::TrafficGenConfig tg;
    tg.name = "g0";
    chip.add_traffic_gen(0, tg);
    chip.qos_block(1).regulator->set_budget(2048);
    chip.qos_block(1).regulator->set_enabled(true);
    chip.run_for(1 * sim::kPsPerMs);
    std::ostringstream os;
    chip.collect_metrics().write_json(os, chip.sim().now());
    // The kernel self-profiling wall-clock metrics are real time, not
    // simulated time — strip them before comparing.
    std::string out = os.str();
    std::size_t pos;
    while ((pos = out.find("\"sim.wall")) != std::string::npos) {
      const std::size_t end = out.find("},", pos);
      out.erase(pos, end - pos + 2);
    }
    return out;
  };
  const std::string with = run_once(true);
  const std::string without = run_once(false);
  EXPECT_GT(with.size(), 100u);
  EXPECT_EQ(with, without);
}

// --- RunManifest ------------------------------------------------------------

TEST(Manifest, JsonRoundTripAndComparability) {
  telemetry::RunManifest m;
  m.tool = "fgqos_sim";
  m.scenario = "preset=dual_critical budget_mbps=400 \"quoted\"";
  m.seed = 1234567890123ull;
  m.fault_spec_hash = telemetry::fnv1a_hex("{\"faults\":[]}");
  m.build = telemetry::RunManifest::build_flavor();
  const telemetry::RunManifest back = telemetry::RunManifest::from_json(
      util::JsonValue::parse(m.to_json_object()));
  EXPECT_EQ(back.schema_version, m.schema_version);
  EXPECT_EQ(back.tool, m.tool);
  EXPECT_EQ(back.scenario, m.scenario);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.fault_spec_hash, m.fault_spec_hash);
  EXPECT_EQ(back.build, m.build);
  EXPECT_TRUE(m.comparable_with(back));
  // Same tool, different scenario/seed: still comparable (that is what
  // run comparison is for).
  telemetry::RunManifest other = m;
  other.seed = 99;
  other.scenario = "something else";
  EXPECT_TRUE(m.comparable_with(other));
  // Different tool or schema version: not comparable.
  other = m;
  other.tool = "fgqos_sweep";
  EXPECT_FALSE(m.comparable_with(other));
  other = m;
  other.schema_version = m.schema_version + 1;
  EXPECT_FALSE(m.comparable_with(other));
  // fnv1a is stable and input-sensitive.
  EXPECT_EQ(telemetry::fnv1a_hex("abc"), telemetry::fnv1a_hex("abc"));
  EXPECT_NE(telemetry::fnv1a_hex("abc"), telemetry::fnv1a_hex("abd"));
  EXPECT_EQ(telemetry::fnv1a_hex("x").size(), 16u);
}

TEST(Manifest, CsvCommentRoundTrip) {
  telemetry::RunManifest m;
  m.tool = "fgqos_sweep";
  m.scenario = "knob=budget values=400,800 scheme=memguard";
  m.seed = 42;
  m.fault_spec_hash = "00deadbeef001234";
  m.build = "release";
  const std::string comment = m.to_csv_comment();
  EXPECT_EQ(comment.rfind("# fgqos-manifest ", 0), 0u);
  telemetry::RunManifest back;
  ASSERT_TRUE(telemetry::RunManifest::from_csv_comment(comment, back));
  EXPECT_EQ(back.schema_version, m.schema_version);
  EXPECT_EQ(back.tool, m.tool);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.fault_spec_hash, m.fault_spec_hash);
  EXPECT_EQ(back.build, m.build);
  // Scenario survives embedded spaces (it is the trailing field).
  EXPECT_EQ(back.scenario, m.scenario);
  telemetry::RunManifest ignore;
  EXPECT_FALSE(telemetry::RunManifest::from_csv_comment(
      "# just a comment", ignore));
  EXPECT_FALSE(telemetry::RunManifest::from_csv_comment(
      "scope,window_start_ps", ignore));
}

}  // namespace
}  // namespace fgqos

// Focused edge-case coverage: simulator stop/ties, histogram moments,
// regfile read-only registers, traffic-gen strided pattern, closed-page
// accounting, SoC config validation and zero-interference bounds.
#include <gtest/gtest.h>

#include "fgqos.hpp"
#include "qos/analysis.hpp"
#include "util/config_error.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// Simulator edges
// --------------------------------------------------------------------------

TEST(SimulatorEdges, StopEndsRunEarly) {
  sim::Simulator s;
  int fired = 0;
  s.schedule_at(100, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(200, [&] { ++fired; });
  s.run_until(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100u);
  // A later run resumes where it stopped.
  s.run_until(1000);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorEdges, EventsBeforeTicksAtSameTime) {
  sim::Simulator s;
  sim::ClockDomain clk("c", 100);
  std::vector<int> order;
  class T final : public sim::Clocked {
   public:
    T(sim::Simulator& sm, const sim::ClockDomain& c, std::vector<int>& o)
        : sim::Clocked(sm, c, "t"), order_(o) {}
    bool tick(sim::Cycles) override {
      order_.push_back(2);
      return false;
    }
    std::vector<int>& order_;
  } t(s, clk, order);
  s.schedule_at(0, [&] { order.push_back(1); });
  s.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorEdges, ScheduleInPastAsserts) {
  sim::Simulator s;
  s.schedule_at(100, [] {});
  s.run_until(100);
  EXPECT_DEATH(s.schedule_at(50, [] {}), "time in the past");
}

// --------------------------------------------------------------------------
// Histogram moments
// --------------------------------------------------------------------------

TEST(HistogramMoments, StddevMatchesClosedForm) {
  sim::Histogram h;
  h.record_n(10, 2);
  h.record_n(20, 2);
  // Population stddev of {10,10,20,20} = 5.
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
  EXPECT_NEAR(h.stddev(), 5.0, 1e-9);
}

TEST(HistogramMoments, EmptyAndSingle) {
  sim::Histogram h;
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0u);
  h.record(42);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
  EXPECT_EQ(h.p50(), 42u);
}

// --------------------------------------------------------------------------
// RegFile read-only corners
// --------------------------------------------------------------------------

TEST(RegFileCorners, BurstWindowsAndExhaustCountReadable) {
  sim::Simulator s;
  qos::RegulatorConfig rc;
  rc.budget_bytes = 64;
  rc.window_ps = 1000;
  rc.kind = qos::ReplenishKind::kTokenBucket;
  rc.max_accumulation_windows = 3;
  qos::Regulator reg(s, rc);
  qos::QosRegFile rf(&reg, nullptr);
  EXPECT_EQ(rf.read(qos::Reg::kBurstWindows), 3u);
  EXPECT_EQ(rf.read(qos::Reg::kExhaustCount), 0u);
  // Exhaust once.
  axi::Transaction txn;
  axi::LineRequest l;
  l.txn = &txn;
  l.bytes = 64;
  reg.on_grant(l, 0);
  EXPECT_EQ(rf.read(qos::Reg::kExhaustCount), 1u);
  EXPECT_EQ(rf.read(qos::Reg::kStatus), 1u);
  // Unknown offset reads as zero and ignores writes.
  EXPECT_EQ(rf.read(0xFFu), 0u);
  rf.write(0xFFu, 123);
}

// --------------------------------------------------------------------------
// Strided traffic
// --------------------------------------------------------------------------

TEST(StridedTraffic, AddressesFollowTheStride) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.pattern = wl::Pattern::kStrided;
  tg.stride_bytes = 8192;
  tg.burst_bytes = 64;
  tg.max_bytes = 64 * 16;
  chip.add_traffic_gen(0, tg);
  struct GrantAddrs final : axi::TxnObserver {
    std::vector<axi::Addr> addrs;
    void on_issue(const axi::Transaction&, sim::TimePs) override {}
    void on_grant(const axi::LineRequest& line, sim::TimePs) override {
      addrs.push_back(line.addr);
    }
    void on_complete(const axi::Transaction&, sim::TimePs) override {}
  } rec;
  chip.accel_port(0).add_observer(rec);
  chip.run_for(sim::kPsPerMs);
  ASSERT_GE(rec.addrs.size(), 2u);
  EXPECT_EQ(rec.addrs[1] - rec.addrs[0], 8192u);
}

// --------------------------------------------------------------------------
// Closed-page accounting
// --------------------------------------------------------------------------

TEST(ClosedPage, RandomTrafficPaysOneActPerAccess) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  cfg.dram.page_policy = dram::PagePolicy::kClosed;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.pattern = wl::Pattern::kRandomRead;
  tg.burst_bytes = 64;
  tg.max_bytes = 1 << 20;
  chip.add_traffic_gen(0, tg);
  chip.run_for(10 * sim::kPsPerMs);
  const auto& ds = chip.dram().stats();
  const std::uint64_t cas = ds.reads_serviced.value();
  ASSERT_GT(cas, 0u);
  // Nearly every access activates (no rows left open to conflict with),
  // and conflict precharges essentially vanish.
  EXPECT_GT(ds.activations.value(), cas * 95 / 100);
  EXPECT_LT(ds.conflict_precharges.value(), cas / 20);
}

// --------------------------------------------------------------------------
// Config validation corners
// --------------------------------------------------------------------------

TEST(ConfigValidation, ChannelKnobsChecked) {
  soc::SocConfig cfg;
  cfg.dram_channels = 0;
  EXPECT_THROW(soc::Soc{cfg}, ConfigError);
  cfg = soc::SocConfig{};
  cfg.dram_channels = 9;
  EXPECT_THROW(soc::Soc{cfg}, ConfigError);
  cfg = soc::SocConfig{};
  cfg.channel_stride_bytes = 96;  // not a power of two
  EXPECT_THROW(soc::Soc{cfg}, ConfigError);
}

TEST(ConfigValidation, RegulatorAndMonitorWindows) {
  sim::Simulator s;
  qos::RegulatorConfig rc;
  rc.window_ps = 0;
  EXPECT_THROW(qos::Regulator(s, rc), ConfigError);
  qos::MonitorConfig mc;
  mc.count_reads = false;
  mc.count_writes = false;
  EXPECT_THROW(qos::BandwidthMonitor(s, mc), ConfigError);
}

// --------------------------------------------------------------------------
// Analysis corners
// --------------------------------------------------------------------------

TEST(AnalysisCorners, NoAggressorsStillBoundedByQueue) {
  soc::SocConfig cfg;
  qos::BoundInputs in;
  in.dram = cfg.dram;
  in.aggressor_total_bps = 0;
  const auto b = qos::worst_case_read_latency(in);
  // Without regulation info, the queue capacity is the only limit.
  EXPECT_EQ(b.interfering_lines, cfg.dram.read_queue_depth - 1);
  EXPECT_GT(b.total_ps, 0u);
}

TEST(AnalysisCorners, TinyBudgetYieldsSmallK) {
  soc::SocConfig cfg;
  qos::BoundInputs in;
  in.dram = cfg.dram;
  in.aggressor_total_bps = 10e6;  // 10 MB/s over 1 us = 10 bytes/window
  in.regulation_window_ps = sim::kPsPerUs;
  in.aggressor_count = 1;
  const auto b = qos::worst_case_read_latency(in);
  EXPECT_LT(b.interfering_lines, 4u);
}

// --------------------------------------------------------------------------
// CPU restart after finishing (measurement workflow)
// --------------------------------------------------------------------------

TEST(MeasurementWorkflow, WarmupThenMeasure) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  wl::ComputeBoundConfig cb;
  cpu::CoreConfig cc;
  cc.max_iterations = 2;  // warm-up
  cpu::CpuCore& core = chip.add_core(cc, wl::make_compute_bound(cb));
  ASSERT_TRUE(chip.run_until_cores_finished(100 * sim::kPsPerMs));
  const double warm_hits = core.l1().stats().hit_rate();
  core.restart_measurement(4);
  ASSERT_TRUE(chip.run_until_cores_finished(chip.now() + 100 * sim::kPsPerMs));
  EXPECT_EQ(core.stats().iterations, 4u);
  // Warm caches carried over into the measurement phase.
  EXPECT_GE(core.l1().stats().hit_rate(), warm_hits);
}

}  // namespace
}  // namespace fgqos

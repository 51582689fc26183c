// Tests for the latency monitor, the closed-loop adaptive controller, the
// analytical worst-case bound, platform presets, the CLI parser and the
// new computational kernels.
#include <gtest/gtest.h>

#include "qos/adaptive_controller.hpp"
#include "qos/analysis.hpp"
#include "qos/latency_monitor.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// LatencyMonitor
// --------------------------------------------------------------------------

TEST(LatencyMonitor, TracksWindowsAndHistogram) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  qos::LatencyMonitorConfig lc;
  lc.window_ps = 100 * sim::kPsPerUs;
  qos::LatencyMonitor mon(chip.sim(), lc);
  chip.cpu_port().add_observer(mon);
  cpu::CoreConfig cc;
  cc.max_iterations = 2;
  wl::PointerChaseConfig pc;
  pc.accesses_per_iteration = 512;
  chip.add_core(cc, wl::make_pointer_chase(pc));
  ASSERT_TRUE(chip.run_until_cores_finished(100 * sim::kPsPerMs));
  EXPECT_GT(mon.histogram().count(), 500u);
  EXPECT_GT(mon.last_window_max_ps(), 0u);
  EXPECT_GT(mon.last_window_mean_ps(), 0.0);
  // Max of any window is bounded by the overall histogram max.
  EXPECT_LE(mon.last_window_max_ps(), mon.histogram().max());
}

TEST(LatencyMonitor, ThresholdFiresOncePerWindow) {
  sim::Simulator s;
  qos::LatencyMonitorConfig lc;
  lc.window_ps = 1000;
  qos::LatencyMonitor mon(s, lc);
  int fires = 0;
  mon.set_threshold(500, [&](sim::TimePs, sim::TimePs) { ++fires; });
  auto complete = [&](sim::TimePs created, sim::TimePs done) {
    axi::Transaction txn;
    txn.created = created;
    txn.completed = done;
    mon.on_complete(txn, done);
  };
  s.schedule_at(100, [&] { complete(0, 100); });    // lat 100: below
  s.schedule_at(700, [&] { complete(0, 700); });    // lat 700: fires
  s.schedule_at(800, [&] { complete(0, 800); });    // lat 800: suppressed
  s.schedule_at(1700, [&] { complete(1100, 1700); });  // new window: fires
  s.run_until(2000);
  EXPECT_EQ(fires, 2);
}

TEST(LatencyMonitor, DirectionFilter) {
  sim::Simulator s;
  qos::LatencyMonitor mon(s, qos::LatencyMonitorConfig{});
  axi::Transaction wr;
  wr.dir = axi::Dir::kWrite;
  wr.completed = 50;
  mon.on_complete(wr, 50);
  EXPECT_EQ(mon.histogram().count(), 0u);
}

// --------------------------------------------------------------------------
// AdaptiveQosController
// --------------------------------------------------------------------------

TEST(AdaptiveController, ConvergesBelowLatencyTarget) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  // Critical latency task + latency monitor on the CPU port.
  qos::LatencyMonitorConfig lc;
  lc.window_ps = 100 * sim::kPsPerUs;
  qos::LatencyMonitor mon(chip.sim(), lc);
  chip.cpu_port().add_observer(mon);
  cpu::CoreConfig cc;
  chip.add_core(cc, wl::make_pointer_chase({}));  // runs forever
  // Three hungry aggressors under adaptive control.
  std::vector<qos::Regulator*> regs;
  for (std::size_t i = 0; i < 3; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 4 + i;
    chip.add_traffic_gen(i, tg);
    regs.push_back(chip.qos_block(1 + i).regulator.get());
  }
  qos::AdaptiveControllerConfig ac;
  ac.latency_target_ps = 600 * sim::kPsPerNs;
  ac.period_ps = lc.window_ps;
  qos::AdaptiveQosController ctrl(chip.sim(), ac, mon, regs);
  ctrl.start();
  chip.run_for(30 * sim::kPsPerMs);
  EXPECT_GT(ctrl.stats().periods, 250u);
  EXPECT_GT(ctrl.stats().increases, 0u);
  // In steady state the critical window-max respects the target most of
  // the time; check the last observation directly.
  EXPECT_LE(mon.last_window_max_ps(), ac.latency_target_ps * 2);
  // And the controller must have found a non-trivial best-effort rate.
  EXPECT_GT(ctrl.stats().current_bps, ac.min_bps);
  ctrl.stop();
}

TEST(AdaptiveController, GrowsToMaxWithoutPressure) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  qos::LatencyMonitorConfig lc;
  qos::LatencyMonitor mon(chip.sim(), lc);  // never sees traffic: max = 0
  chip.cpu_port().add_observer(mon);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  std::vector<qos::Regulator*> regs = {chip.qos_block(1).regulator.get()};
  qos::AdaptiveControllerConfig ac;
  ac.period_ps = 100 * sim::kPsPerUs;
  ac.increase_bps = 500e6;
  ac.max_bps = 3e9;
  qos::AdaptiveQosController ctrl(chip.sim(), ac, mon, regs);
  ctrl.start();
  chip.run_for(10 * sim::kPsPerMs);
  EXPECT_EQ(ctrl.stats().decreases, 0u);
  EXPECT_NEAR(ctrl.stats().current_bps, ac.max_bps, 1e6);
}

TEST(AdaptiveController, ValidatesConfig) {
  sim::Simulator s;
  qos::LatencyMonitorConfig lc;
  qos::LatencyMonitor mon(s, lc);
  qos::RegulatorConfig rc;
  qos::Regulator reg(s, rc);
  qos::AdaptiveControllerConfig ac;
  ac.decrease_factor = 1.5;
  EXPECT_THROW(qos::AdaptiveQosController(s, ac, mon, {&reg}), ConfigError);
  ac = qos::AdaptiveControllerConfig{};
  EXPECT_THROW(qos::AdaptiveQosController(s, ac, mon, {}), ConfigError);
}

// --------------------------------------------------------------------------
// Analytical worst-case bound
// --------------------------------------------------------------------------

qos::BoundInputs default_inputs(double aggressor_bps) {
  soc::SocConfig cfg;
  qos::BoundInputs in;
  in.dram = cfg.dram;
  in.path_latency_ps = cfg.cpu_port.request_latency_ps +
                       cfg.dram.frontend_latency_ps +
                       cfg.cpu_port.response_latency_ps;
  in.aggressor_total_bps = aggressor_bps;
  in.aggressor_count = aggressor_bps > 0 ? 4 : 0;
  return in;
}

TEST(AnalysisBound, MonotoneInAggressorRate) {
  const auto low = qos::worst_case_read_latency(default_inputs(400e6));
  const auto high = qos::worst_case_read_latency(default_inputs(4e9));
  EXPECT_LE(low.total_ps, high.total_ps);
  EXPECT_LE(low.interfering_lines, high.interfering_lines);
}

TEST(AnalysisBound, BreakdownSumsToTotal) {
  const auto b = qos::worst_case_read_latency(default_inputs(1e9));
  EXPECT_EQ(b.total_ps,
            b.path_ps + b.service_ps + b.refresh_ps + b.write_drain_ps);
  EXPECT_GT(b.interfering_lines, 0u);
}

TEST(AnalysisBound, ObservedMaxNeverExceedsBound) {
  // Regulated interference scenario: the bound must dominate the observed
  // worst read latency on the critical port.
  const double per_master = 800e6;
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.max_iterations = 40;
  wl::PointerChaseConfig pc;
  pc.accesses_per_iteration = 1024;
  chip.add_core(cc, wl::make_pointer_chase(pc));
  for (std::size_t i = 0; i < 4; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 21 + i;
    chip.add_traffic_gen(i, tg);
    chip.qos_block(1 + i).regulator->set_rate(per_master);
    chip.qos_block(1 + i).regulator->set_enabled(true);
  }
  ASSERT_TRUE(chip.run_until_cores_finished(2000 * sim::kPsPerMs));
  qos::BoundInputs in = default_inputs(4 * per_master);
  const auto bound = qos::worst_case_read_latency(in);
  const std::uint64_t observed = chip.cpu_port().stats().read_latency.max();
  EXPECT_LE(observed, bound.total_ps)
      << "observed " << observed << " vs bound " << bound.total_ps;
  // And the bound is not absurdly loose: within 100x of the observation.
  EXPECT_LT(bound.total_ps, observed * 100);
}

// --------------------------------------------------------------------------
// Presets
// --------------------------------------------------------------------------

TEST(Presets, AllBuildAndRun) {
  for (const auto& name : soc::preset_names()) {
    soc::SocConfig cfg = soc::preset_by_name(name);
    EXPECT_NO_THROW(cfg.validate()) << name;
    soc::Soc chip(cfg);
    wl::TrafficGenConfig tg;
    tg.max_bytes = 256 * 1024;
    wl::TrafficGen& gen = chip.add_traffic_gen(0, tg);
    chip.run_for(2 * sim::kPsPerMs);
    EXPECT_TRUE(gen.drained()) << name;
  }
}

TEST(Presets, UnknownNameRejected) {
  EXPECT_THROW(soc::preset_by_name("zcu999"), ConfigError);
}

TEST(Presets, SmallerPlatformsHaveLowerPeak) {
  const double zcu = soc::preset_zcu102().dram.timing.peak_bandwidth_bps();
  const double kria = soc::preset_kria_k26().dram.timing.peak_bandwidth_bps();
  const double u96 = soc::preset_ultra96().dram.timing.peak_bandwidth_bps();
  EXPECT_GT(zcu, kria);
  EXPECT_GT(kria, u96);
}

// --------------------------------------------------------------------------
// ArgParser
// --------------------------------------------------------------------------

TEST(ArgParser, ParsesAllForms) {
  // Note: a bare flag followed by a non-option token would swallow the
  // token as its value ("--key value" form), so positionals come first.
  const char* argv[] = {"prog", "positional", "--a=1", "--b",
                        "2",    "--f=x",      "--flag"};
  util::ArgParser p(7, argv);
  EXPECT_EQ(p.get_count("a", 0), 1u);
  EXPECT_EQ(p.get_count("b", 0), 2u);
  EXPECT_TRUE(p.get_bool("flag", false));
  EXPECT_EQ(p.get("f"), "x");
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "positional");
  EXPECT_TRUE(p.unused_keys().empty());
}

TEST(ArgParser, TypedErrors) {
  const char* argv[] = {"prog", "--n=abc", "--x=1.5z", "--b=maybe"};
  util::ArgParser p(4, argv);
  EXPECT_THROW((void)p.get_count("n", 0), ConfigError);
  EXPECT_THROW((void)p.get_double("x", 0), ConfigError);
  EXPECT_THROW((void)p.get_bool("b", false), ConfigError);
}

TEST(ArgParser, ReportsUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  util::ArgParser p(3, argv);
  (void)p.get("used");
  const auto unused = p.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// --------------------------------------------------------------------------
// New kernels
// --------------------------------------------------------------------------

TEST(NewKernels, MatmulTouchesAllThreeMatrices) {
  wl::TiledMatmulConfig mc;
  mc.matrix_dim = 128;
  mc.tile_dim = 64;
  auto k = wl::make_tiled_matmul(mc);
  sim::Xoshiro256 rng(1);
  bool saw_a = false, saw_b = false, saw_c_write = false;
  int end_markers = 0;
  for (int i = 0; i < 200'000 && end_markers < 1; ++i) {
    const auto s = k->next(rng);
    if (s.op) {
      saw_a = saw_a || (s.op->addr >= mc.base_a && s.op->addr < mc.base_b);
      saw_b = saw_b || (s.op->addr >= mc.base_b && s.op->addr < mc.base_c);
      saw_c_write = saw_c_write || (s.op->addr >= mc.base_c && s.op->is_write);
    }
    end_markers += s.end_of_iteration ? 1 : 0;
  }
  EXPECT_EQ(end_markers, 1);
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(saw_c_write);
}

TEST(NewKernels, Conv2dReadsThreeRowsWritesOne) {
  wl::Conv2dConfig cc;
  cc.width = 16;  // 16 px x 4 B = 64 B = exactly 1 line per row
  cc.rows_per_iteration = 2;
  auto k = wl::make_conv2d(cc);
  sim::Xoshiro256 rng(1);
  int reads = 0, writes = 0;
  for (int i = 0; i < 8; ++i) {  // 2 rows x (3 reads + 1 write)
    const auto s = k->next(rng);
    ASSERT_TRUE(s.op);
    (s.op->is_write ? writes : reads) += 1;
  }
  EXPECT_EQ(reads, 6);
  EXPECT_EQ(writes, 2);
}

TEST(NewKernels, FftStrideCoversAllPasses) {
  wl::FftStrideConfig fc;
  fc.elements = 16;  // 4 passes x 8 butterflies x 2 legs = 64 steps
  auto k = wl::make_fft_stride(fc);
  sim::Xoshiro256 rng(1);
  int steps = 0;
  while (true) {
    const auto s = k->next(rng);
    ++steps;
    ASSERT_LE(s.op->addr, fc.base + (fc.elements - 1) * 8);
    if (s.end_of_iteration) {
      break;
    }
  }
  EXPECT_EQ(steps, 64);
}

TEST(NewKernels, RunOnTheFullPlatform) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.max_iterations = 1;
  wl::TiledMatmulConfig mc;
  mc.matrix_dim = 128;
  chip.add_core(cc, wl::make_tiled_matmul(mc));
  EXPECT_TRUE(chip.run_until_cores_finished(200 * sim::kPsPerMs));
  EXPECT_GT(chip.cpu_port().stats().txns_completed.value(), 0u);
}

}  // namespace
}  // namespace fgqos

// Last-mile coverage: ISR-after-boundary race, disabled
// gates, kernel hot-swap, multi-channel stats aggregation, and table I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "fgqos.hpp"
#include "util/csv.hpp"
#include "util/config_error.hpp"

namespace fgqos {
namespace {

TEST(SoftMemguardRace, IsrLandingAfterBoundaryIsDropped) {
  sim::Simulator s;
  qos::SoftMemguardConfig mc;
  mc.period_ps = 100'000;
  mc.isr_latency_ps = 20'000;
  qos::SoftMemguard mg(s, mc);
  mg.set_budget(0, 64);
  axi::Transaction txn;
  txn.master = 0;
  axi::LineRequest l;
  l.txn = &txn;
  l.bytes = 64;
  // Overflow at t=95us; ISR would land at t=115us, i.e. after the period
  // boundary at t=100us reset the budget: the stale stall must be dropped.
  s.schedule_at(95'000, [&] {
    mg.on_grant(l, 95'000);
    mg.on_grant(l, 95'000);  // 128 > 64: overflow, IRQ scheduled
  });
  s.run_until(150'000);
  EXPECT_FALSE(mg.stalled(0));
  EXPECT_EQ(mg.master_stats(0).periods_throttled, 0u);
}

TEST(LaggedRegulatorDisabled, PassesEverything) {
  sim::Simulator s;
  qos::RegulatorConfig rc;
  rc.budget_bytes = 1;
  rc.enabled = false;
  rc.observation_latency_ps = 10 * sim::kPsPerUs;
  qos::Regulator reg(s, rc);
  axi::Transaction txn;
  axi::LineRequest l;
  l.txn = &txn;
  l.bytes = 4096;
  EXPECT_TRUE(reg.allow(l, 0));
  reg.on_grant(l, 0);
  EXPECT_TRUE(reg.allow(l, 0));
  EXPECT_EQ(reg.stats().regulated_bytes, 0u);  // disabled: not even counted
}

TEST(KernelHotSwap, CoreSwitchesWorkloadsMidRun) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.max_iterations = 2;
  wl::ComputeBoundConfig cb;
  cpu::CpuCore& core = chip.add_core(cc, wl::make_compute_bound(cb));
  ASSERT_TRUE(chip.run_until_cores_finished(100 * sim::kPsPerMs));
  EXPECT_EQ(core.kernel().name(), "compute_bound");
  wl::PointerChaseConfig pc;
  pc.accesses_per_iteration = 64;
  core.set_kernel(wl::make_pointer_chase(pc));
  core.restart_measurement(2);
  ASSERT_TRUE(chip.run_until_cores_finished(chip.now() + 100 * sim::kPsPerMs));
  EXPECT_EQ(core.kernel().name(), "pointer_chase");
  EXPECT_EQ(core.stats().iterations, 2u);
}

TEST(MultiChannelStats, CollectAggregatesChannels) {
  soc::SocConfig cfg;
  cfg.dram_channels = 2;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.max_bytes = 512 * 1024;
  chip.add_traffic_gen(0, tg);
  chip.run_for(5 * sim::kPsPerMs);
  sim::StatsRegistry r;
  chip.collect_stats(r);
  EXPECT_DOUBLE_EQ(r.get("dram.payload_bytes"), 512.0 * 1024);
  const double util = r.get("dram.bus_utilization");
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0);
}

TEST(TableIo, SaveCsvRoundTripsThroughFile) {
  util::Table t({"k", "v"});
  t.add_row({std::string("x"), std::uint64_t{7}});
  const std::string path = "/tmp/fgqos_table_test.csv";
  t.save_csv(path);
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str(), "k,v\nx,7\n");
  std::remove(path.c_str());
  EXPECT_THROW(t.save_csv("/nonexistent_dir_xyz/out.csv"), ConfigError);
}

TEST(EventQueueBasics, SizeAndNextTime) {
  sim::EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), sim::kTimeNever);
  q.schedule(5, [] {});
  q.schedule(3, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 3u);
  EXPECT_EQ(q.run_next(), 3u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(DisabledRegulatorInBlock, DefaultSocIsTransparent) {
  // Out of the box (regulators present but disabled) the platform must
  // behave identically to qos_blocks = false.
  auto run = [](bool blocks) {
    soc::SocConfig cfg;
    cfg.qos_blocks = blocks;
    soc::Soc chip(cfg);
    wl::TrafficGenConfig tg;
    chip.add_traffic_gen(0, tg);
    chip.run_for(sim::kPsPerMs);
    return chip.accel_port(0).stats().bytes_granted.value();
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace fgqos

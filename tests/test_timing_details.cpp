// Fine-grained timing and behavioural detail tests: DRAM tFAW/refresh
// effects, mapping-policy bandwidth, CMRI/PREM schedules, runtime pacing
// changes and bound portability across presets.
#include <gtest/gtest.h>

#include "fgqos.hpp"
#include "qos/analysis.hpp"
#include "soc/presets.hpp"
#include "util/config_error.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// DRAM timing effects observable end to end
// --------------------------------------------------------------------------

TEST(DramTimingEffects, FawLimitsRandomThroughput) {
  // Random single-burst traffic is activate-bound: throughput across 4
  // saturating ports is capped near 4 bursts per tFAW window.
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  for (std::size_t i = 0; i < 4; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "g";
    tg.name += std::to_string(i);
    tg.pattern = wl::Pattern::kRandomRead;
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 70 + i;
    chip.add_traffic_gen(i, tg);
  }
  chip.run_for(3 * sim::kPsPerMs);
  const auto& t = cfg.dram.timing;
  const double faw_cap_bps =
      4.0 * t.burst_bytes /
      (static_cast<double>(t.tFAW) * static_cast<double>(t.period_ps())) *
      1e12;
  const double measured = chip.dram_bandwidth_bps();
  EXPECT_LT(measured, faw_cap_bps * 1.05);
  EXPECT_GT(measured, faw_cap_bps * 0.75);  // scheduler keeps FAW busy
}

TEST(DramTimingEffects, RowMajorMappingSustainsRowHits) {
  // One sequential stream under row-major mapping stays in one bank/row
  // for a whole page: hit rate should be very high.
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  cfg.dram.mapping = dram::MappingPolicy::kRowBankColumn;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.burst_bytes = 4096;
  chip.add_traffic_gen(0, tg);
  chip.run_for(2 * sim::kPsPerMs);
  const auto& ds = chip.dram().stats();
  const double cas = static_cast<double>(ds.reads_serviced.value());
  ASSERT_GT(cas, 1000);
  EXPECT_GT(static_cast<double>(ds.row_hits()) / cas, 0.95);
}

TEST(DramTimingEffects, LongerRefreshIntervalMeansFewerRefreshes) {
  auto refreshes = [](std::uint32_t trefi) {
    soc::SocConfig cfg;
    cfg.qos_blocks = false;
    cfg.dram.timing.tREFI = trefi;
    soc::Soc chip(cfg);
    wl::TrafficGenConfig tg;
    chip.add_traffic_gen(0, tg);
    chip.run_for(2 * sim::kPsPerMs);
    return chip.dram().stats().refreshes.value();
  };
  const auto fast = refreshes(4680);
  const auto slow = refreshes(9360);
  EXPECT_GT(fast, slow);
  EXPECT_NEAR(static_cast<double>(fast),
              2.0 * static_cast<double>(slow), 4.0);
}

// --------------------------------------------------------------------------
// PREM schedules with repetition; CMRI runtime budget change
// --------------------------------------------------------------------------

TEST(PremSchedules, RepeatedOwnerGetsProportionalSlots) {
  sim::Simulator s;
  qos::PremConfig pc;
  pc.schedule = {0, 0, 0, 1};  // master 0 owns 3 of 4 slots
  pc.slot_ps = 100;
  qos::PremArbiter prem(s, pc);
  int owner0 = 0;
  for (int i = 0; i < 40; ++i) {
    owner0 += prem.owner() == 0 ? 1 : 0;
    s.run_until(s.now() + 100);
  }
  EXPECT_NEAR(owner0, 30, 1);
}

TEST(CmriRuntime, InjectionBudgetChangeAppliesNextSlot) {
  sim::Simulator s;
  qos::PremConfig pc;
  pc.schedule = {0, 1};
  pc.slot_ps = 1000;
  qos::PremArbiter prem(s, pc);
  qos::CmriConfig cc;
  cc.injection_budget_bytes = 64;
  qos::CmriInjector cmri(prem, cc);
  axi::Transaction txn;
  txn.master = 1;
  axi::LineRequest l;
  l.txn = &txn;
  l.bytes = 64;
  EXPECT_TRUE(cmri.allow(l, 0));
  cmri.on_grant(l, 0);
  EXPECT_FALSE(cmri.allow(l, 0));
  cmri.set_injection_budget(256);
  // Larger budget visible immediately (remaining recomputed).
  EXPECT_TRUE(cmri.allow(l, 0));
}

// --------------------------------------------------------------------------
// Runtime pacing change on a traffic generator
// --------------------------------------------------------------------------

TEST(TrafficPacing, TargetChangeAtRuntime) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.target_bps = 500e6;
  wl::TrafficGen& gen = chip.add_traffic_gen(0, tg);
  chip.run_for(2 * sim::kPsPerMs);
  const std::uint64_t phase1 = gen.stats().issued_bytes;
  gen.set_target_bps(2e9);
  chip.run_for(2 * sim::kPsPerMs);
  const std::uint64_t phase2 = gen.stats().issued_bytes - phase1;
  EXPECT_NEAR(sim::bytes_per_second(phase1, 2 * sim::kPsPerMs), 500e6, 50e6);
  EXPECT_NEAR(sim::bytes_per_second(phase2, 2 * sim::kPsPerMs), 2e9, 0.2e9);
}

// --------------------------------------------------------------------------
// Analysis bound portability across presets
// --------------------------------------------------------------------------

TEST(BoundPortability, HoldsOnEveryPreset) {
  for (const auto& name : soc::preset_names()) {
    soc::SocConfig cfg = soc::preset_by_name(name);
    soc::Soc chip(cfg);
    cpu::CoreConfig cc;
    cc.max_iterations = 10;
    wl::PointerChaseConfig pc;
    pc.accesses_per_iteration = 512;
    chip.add_core(cc, wl::make_pointer_chase(pc));
    const std::size_t gens = std::min<std::size_t>(cfg.accel_ports, 2);
    for (std::size_t i = 0; i < gens; ++i) {
      wl::TrafficGenConfig tg;
      tg.name = "g";
      tg.name += std::to_string(i);
      tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
      tg.seed = 50 + i;
      chip.add_traffic_gen(i, tg);
      chip.qos_block(1 + i).regulator->set_rate(400e6);
      chip.qos_block(1 + i).regulator->set_enabled(true);
    }
    ASSERT_TRUE(chip.run_until_cores_finished(2000 * sim::kPsPerMs)) << name;
    qos::BoundInputs in;
    in.dram = cfg.dram;
    in.path_latency_ps = cfg.cpu_port.request_latency_ps +
                         cfg.dram.frontend_latency_ps +
                         cfg.cpu_port.response_latency_ps;
    in.aggressor_total_bps = 400e6 * static_cast<double>(gens);
    in.aggressor_count = gens;
    const auto bound = qos::worst_case_read_latency(in);
    EXPECT_LE(chip.cpu_port().stats().read_latency.max(), bound.total_ps)
        << name;
  }
}

// --------------------------------------------------------------------------
// budget_for_rate rounding corners
// --------------------------------------------------------------------------

TEST(BudgetRounding, NearestByteAndMinimumOne) {
  // 1.5 bytes/window rounds to 2; 1.4 rounds to 1.
  EXPECT_EQ(qos::budget_for_rate(1.5e6, sim::kPsPerUs), 2u);
  EXPECT_EQ(qos::budget_for_rate(1.4e6, sim::kPsPerUs), 1u);
  EXPECT_EQ(qos::budget_for_rate(0.2e6, sim::kPsPerUs), 1u);  // floor 1
  EXPECT_THROW(qos::budget_for_rate(-1.0, sim::kPsPerUs), ConfigError);
}

// --------------------------------------------------------------------------
// Copy traffic under transaction-granular arbitration completes exactly
// --------------------------------------------------------------------------

TEST(TxnGranularCopy, AllBytesArriveOnce) {
  soc::SocConfig cfg;
  cfg.xbar.granularity = axi::ArbGranularity::kTransaction;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.pattern = wl::Pattern::kCopy;
  tg.max_bytes = 1 << 20;
  wl::TrafficGen& gen = chip.add_traffic_gen(0, tg);
  wl::TrafficGenConfig other;
  other.name = "other";
  other.base = 0x9000'0000;
  other.seed = 9;
  chip.add_traffic_gen(1, other);
  chip.run_for(10 * sim::kPsPerMs);
  ASSERT_TRUE(gen.drained());
  EXPECT_EQ(gen.stats().completed_bytes, 1u << 20);
  EXPECT_EQ(chip.dram().master_bytes(chip.accel_port(0).id()), 1u << 20);
}

}  // namespace
}  // namespace fgqos

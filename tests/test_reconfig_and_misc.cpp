// Tests for cross-scheme determinism, runtime reconfiguration of QoS
// blocks, multi-master SoftMemguard, weighted fabric arbitration under load
// and the umbrella header.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fgqos.hpp"

namespace fgqos {
namespace {

/// "g<i>". Built with append: GCC 12 at -O3 reports a false -Wrestrict
/// on `"g" + std::to_string(i)` in this file.
std::string gen_name(std::size_t i) {
  return std::string("g").append(std::to_string(i));
}

// --------------------------------------------------------------------------
// Determinism across every scheme (parameterised)
// --------------------------------------------------------------------------

class SchemeDeterminism : public ::testing::TestWithParam<int> {};

std::map<std::string, double> run_scheme(int scheme_id) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.max_iterations = 3;
  wl::PointerChaseConfig pc;
  pc.accesses_per_iteration = 256;
  chip.add_core(cc, wl::make_pointer_chase(pc));
  std::unique_ptr<qos::SoftMemguard> mg;
  std::unique_ptr<qos::PremArbiter> prem;
  for (std::size_t i = 0; i < 2; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = gen_name(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 7 + i;
    chip.add_traffic_gen(i, tg);
  }
  switch (scheme_id) {
    case 0:
      break;  // unregulated
    case 1:
      for (std::size_t i = 0; i < 2; ++i) {
        chip.qos_block(1 + i).regulator->set_rate(400e6);
        chip.qos_block(1 + i).regulator->set_enabled(true);
      }
      break;
    case 2: {
      mg = std::make_unique<qos::SoftMemguard>(chip.sim(),
                                               qos::SoftMemguardConfig{});
      for (std::size_t i = 0; i < 2; ++i) {
        mg->set_rate(chip.accel_port(i).id(), 400e6);
        chip.accel_port(i).add_gate(*mg);
      }
      break;
    }
    case 3: {
      qos::PremConfig pcfg;
      pcfg.schedule = {chip.cpu_port().id(), qos::kAllMasters};
      prem = std::make_unique<qos::PremArbiter>(chip.sim(), pcfg);
      for (std::size_t i = 0; i < 2; ++i) {
        chip.accel_port(i).add_gate(*prem);
      }
      break;
    }
    default:
      break;
  }
  chip.run_until_cores_finished(200 * sim::kPsPerMs);
  sim::StatsRegistry r;
  chip.collect_stats(r);
  return r.all();
}

TEST_P(SchemeDeterminism, BitIdenticalRuns) {
  const auto a = run_scheme(GetParam());
  const auto b = run_scheme(GetParam());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeDeterminism,
                         ::testing::Values(0, 1, 2, 3));

// --------------------------------------------------------------------------
// Runtime reconfiguration
// --------------------------------------------------------------------------

TEST(RuntimeReconfig, BudgetChangeTakesEffectMidRun) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  qos::Regulator& reg = *chip.qos_block(1).regulator;
  reg.set_rate(200e6);
  reg.set_enabled(true);
  chip.run_for(5 * sim::kPsPerMs);
  const std::uint64_t phase1 = chip.accel_port(0).stats().bytes_granted.value();
  reg.set_rate(1e9);
  chip.run_for(5 * sim::kPsPerMs);
  const std::uint64_t phase2 =
      chip.accel_port(0).stats().bytes_granted.value() - phase1;
  const double bps1 = sim::bytes_per_second(phase1, 5 * sim::kPsPerMs);
  const double bps2 = sim::bytes_per_second(phase2, 5 * sim::kPsPerMs);
  EXPECT_NEAR(bps1, 200e6, 20e6);
  EXPECT_NEAR(bps2, 1e9, 60e6);
}

TEST(RuntimeReconfig, WindowChangeMidRunIsSafe) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  qos::Regulator& reg = *chip.qos_block(1).regulator;
  reg.set_rate(500e6);
  reg.set_enabled(true);
  chip.run_for(2 * sim::kPsPerMs);
  reg.set_window(100 * sim::kPsPerUs);
  reg.set_rate(500e6);  // rebudget for the new window
  chip.run_for(4 * sim::kPsPerMs);
  const double bps = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value(), chip.now());
  EXPECT_NEAR(bps, 500e6, 40e6);
}

TEST(RuntimeReconfig, DisableRestoresFullThroughput) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  qos::Regulator& reg = *chip.qos_block(1).regulator;
  reg.set_rate(100e6);
  reg.set_enabled(true);
  chip.run_for(2 * sim::kPsPerMs);
  reg.set_enabled(false);
  const std::uint64_t before = chip.accel_port(0).stats().bytes_granted.value();
  chip.run_for(2 * sim::kPsPerMs);
  const double free_bps = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value() - before,
      2 * sim::kPsPerMs);
  EXPECT_GT(free_bps, 4e9);
}

// --------------------------------------------------------------------------
// Multi-master SoftMemguard
// --------------------------------------------------------------------------

TEST(SoftMemguardMulti, IndependentBudgetsPerMaster) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  qos::SoftMemguard mg(chip.sim(), qos::SoftMemguardConfig{});
  const double budgets[3] = {200e6, 400e6, 800e6};
  for (std::size_t i = 0; i < 3; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = gen_name(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 31 + i;
    chip.add_traffic_gen(i, tg);
    mg.set_rate(chip.accel_port(i).id(), budgets[i]);
    chip.accel_port(i).add_gate(mg);
  }
  chip.run_for(20 * sim::kPsPerMs);
  for (std::size_t i = 0; i < 3; ++i) {
    const double bps = sim::bytes_per_second(
        chip.accel_port(i).stats().bytes_granted.value(), chip.now());
    // Within budget + the ~14 MB/s ISR overshoot.
    EXPECT_NEAR(bps, budgets[i] + 14.4e6, budgets[i] * 0.1) << "master " << i;
  }
}

// --------------------------------------------------------------------------
// Weighted fabric arbitration end to end
// --------------------------------------------------------------------------

TEST(WeightedFabric, SharesFollowWeightsUnderSaturation) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  // Make the DRAM the only bottleneck: generous ports.
  cfg.accel_port.port_bandwidth_bps = 20e9;
  soc::Soc chip(cfg);
  // CPU port unused; weights: hp0 gets 3x hp1's share.
  chip.xbar().set_arbiter(std::make_unique<axi::WeightedRRArbiter>(
      std::vector<std::uint32_t>{1, 3, 1, 1, 1}));
  for (std::size_t i = 0; i < 2; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = gen_name(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 41 + i;
    tg.max_outstanding = 8;
    chip.add_traffic_gen(i, tg);
  }
  chip.run_for(5 * sim::kPsPerMs);
  const double a = static_cast<double>(
      chip.accel_port(0).stats().bytes_granted.value());
  const double b = static_cast<double>(
      chip.accel_port(1).stats().bytes_granted.value());
  EXPECT_NEAR(a / b, 3.0, 0.5);
}

}  // namespace
}  // namespace fgqos

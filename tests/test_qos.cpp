// Unit tests for the QoS module: token buckets, the tightly-coupled
// monitor and regulator, register file, SoftMemguard, PREM/CMRI and the
// lagged (loosely-coupled) regulator. Gates and observers are driven
// directly with synthetic line requests, except for the last section,
// which checks the regulator's reopen signal against a sleeping crossbar.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "axi/interconnect.hpp"
#include "fn_client.hpp"
#include "qos/bandwidth_monitor.hpp"
#include "qos/cmri.hpp"
#include "qos/prem_arbiter.hpp"
#include "qos/regfile.hpp"
#include "qos/regulator.hpp"
#include "qos/soft_memguard.hpp"
#include "qos/window.hpp"
#include "util/config_error.hpp"

namespace fgqos::qos {
namespace {

/// Builds a synthetic line request owned by the fixture.
class LineFactory {
 public:
  axi::LineRequest make(axi::MasterId master, std::uint32_t bytes,
                        bool is_write = false) {
    auto txn = std::make_unique<axi::Transaction>();
    txn->master = master;
    txn->dir = is_write ? axi::Dir::kWrite : axi::Dir::kRead;
    txn->bytes = bytes;
    axi::LineRequest l;
    l.txn = txn.get();
    l.bytes = bytes;
    l.is_write = is_write;
    txns_.push_back(std::move(txn));
    return l;
  }

 private:
  std::vector<std::unique_ptr<axi::Transaction>> txns_;
};

// --------------------------------------------------------------------------
// TokenBucket
// --------------------------------------------------------------------------

TEST(TokenBucket, CreditSemanticsWithOverdraft) {
  TokenBucket b(100, ReplenishKind::kFixedWindow);
  EXPECT_TRUE(b.can_spend());
  b.spend(80);
  EXPECT_EQ(b.tokens(), 20);
  EXPECT_TRUE(b.can_spend());  // positive credit admits any grant
  b.spend(30);                 // overdraft
  EXPECT_EQ(b.tokens(), -10);
  EXPECT_FALSE(b.can_spend());
  b.replenish();
  EXPECT_EQ(b.tokens(), 90);  // debt repaid out of the new window
}

TEST(TokenBucket, FixedWindowDiscardsSurplus) {
  TokenBucket b(100, ReplenishKind::kFixedWindow);
  b.spend(10);
  b.replenish();
  EXPECT_EQ(b.tokens(), 100);  // reset, not 190
}

TEST(TokenBucket, TokenBucketAccumulatesToCap) {
  TokenBucket b(100, ReplenishKind::kTokenBucket, 3);
  b.replenish();
  b.replenish();
  b.replenish();
  b.replenish();
  EXPECT_EQ(b.tokens(), 300);  // capped at 3 windows
}

TEST(TokenBucket, SetBudgetClampsTokens) {
  TokenBucket b(100, ReplenishKind::kFixedWindow);
  b.set_budget(50);
  EXPECT_EQ(b.tokens(), 50);
  b.replenish();
  EXPECT_EQ(b.tokens(), 50);
}

TEST(BudgetForRate, RoundsAndFloorsToOne) {
  EXPECT_EQ(budget_for_rate(0.0, sim::kPsPerUs), 0u);
  EXPECT_EQ(budget_for_rate(1e9, sim::kPsPerUs), 1000u);  // 1 GB/s, 1 us
  EXPECT_EQ(budget_for_rate(1.0, sim::kPsPerUs), 1u);     // floor to 1
  EXPECT_EQ(budget_for_rate(400e6, sim::kPsPerUs), 400u);
}

// --------------------------------------------------------------------------
// BandwidthMonitor
// --------------------------------------------------------------------------

TEST(Monitor, CountsPerWindowAndTotal) {
  sim::Simulator s;
  MonitorConfig mc;
  mc.window_ps = 1000;
  mc.keep_window_trace = true;
  BandwidthMonitor mon(s, mc);
  LineFactory lf;
  s.schedule_at(100, [&] { mon.on_grant(lf.make(0, 64), 100); });
  s.schedule_at(200, [&] { mon.on_grant(lf.make(0, 64), 200); });
  s.schedule_at(1500, [&] { mon.on_grant(lf.make(0, 32), 1500); });
  s.run_until(3000);
  EXPECT_EQ(mon.total_bytes(), 160u);
  ASSERT_GE(mon.window_trace().size(), 2u);
  EXPECT_EQ(mon.window_trace()[0], 128u);
  EXPECT_EQ(mon.window_trace()[1], 32u);
  EXPECT_EQ(mon.windows_closed(), 3u);
}

TEST(Monitor, ThresholdFiresSameCycleOncePerWindow) {
  sim::Simulator s;
  MonitorConfig mc;
  mc.window_ps = 1000;
  BandwidthMonitor mon(s, mc);
  LineFactory lf;
  std::vector<sim::TimePs> fires;
  mon.set_threshold(100, [&](sim::TimePs t, std::uint64_t) {
    fires.push_back(t);
  });
  s.schedule_at(50, [&] { mon.on_grant(lf.make(0, 64), 50); });
  s.schedule_at(60, [&] { mon.on_grant(lf.make(0, 64), 60); });   // crosses
  s.schedule_at(70, [&] { mon.on_grant(lf.make(0, 64), 70); });   // no refire
  s.schedule_at(1200, [&] { mon.on_grant(lf.make(0, 128), 1200); });  // new win
  s.run_until(2000);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0], 60u);   // the same "cycle" the budget was crossed
  EXPECT_EQ(fires[1], 1200u);
}

TEST(Monitor, DirectionFiltering) {
  sim::Simulator s;
  MonitorConfig mc;
  mc.count_writes = false;
  BandwidthMonitor mon(s, mc);
  LineFactory lf;
  mon.on_grant(lf.make(0, 64, /*is_write=*/true), 0);
  mon.on_grant(lf.make(0, 64, /*is_write=*/false), 0);
  EXPECT_EQ(mon.total_bytes(), 64u);
}

TEST(Monitor, SetWindowRestartsCleanly) {
  sim::Simulator s;
  MonitorConfig mc;
  mc.window_ps = 1000;
  BandwidthMonitor mon(s, mc);
  LineFactory lf;
  s.schedule_at(100, [&] {
    mon.on_grant(lf.make(0, 64), 100);
    mon.set_window(500);
  });
  s.run_until(5000);
  // After reconfiguration window counts restart; totals survive.
  EXPECT_EQ(mon.total_bytes(), 64u);
  EXPECT_EQ(mon.window_bytes(), 0u);
}

// --------------------------------------------------------------------------
// Regulator
// --------------------------------------------------------------------------

TEST(Regulator, GatesWhenBudgetExhausted) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 128;
  rc.window_ps = 1000;
  Regulator reg(s, rc);
  LineFactory lf;
  const auto l64 = lf.make(0, 64);
  EXPECT_TRUE(reg.allow(l64, 0));
  reg.on_grant(l64, 0);
  EXPECT_TRUE(reg.allow(l64, 0));
  reg.on_grant(l64, 0);
  EXPECT_FALSE(reg.allow(l64, 0));  // 128 spent
  EXPECT_TRUE(reg.exhausted());
  s.run_until(1500);  // one replenish at t=1000
  EXPECT_TRUE(reg.allow(l64, s.now()));
  EXPECT_FALSE(reg.exhausted());
  EXPECT_EQ(reg.stats().exhausted_windows, 1u);
  EXPECT_EQ(reg.stats().throttled_ps, 1000u);  // from t=0 grant to t=1000
}

TEST(Regulator, DisabledIsTransparent) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 0;
  rc.enabled = false;
  Regulator reg(s, rc);
  LineFactory lf;
  EXPECT_TRUE(reg.allow(lf.make(0, 4096), 0));
  reg.on_grant(lf.make(0, 4096), 0);
  EXPECT_EQ(reg.stats().regulated_bytes, 0u);
}

TEST(Regulator, SetRateProgramsBudget) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.window_ps = sim::kPsPerUs;
  Regulator reg(s, rc);
  reg.set_rate(800e6);  // 800 MB/s in 1 us windows
  EXPECT_EQ(reg.config().budget_bytes, 800u);
  EXPECT_NEAR(reg.programmed_rate_bps(), 800e6, 1.0);
}

TEST(Regulator, TokenBucketCarriesUnusedBudget) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 100;
  rc.window_ps = 1000;
  rc.kind = ReplenishKind::kTokenBucket;
  rc.max_accumulation_windows = 2;
  Regulator reg(s, rc);
  s.run_until(3500);  // several idle windows
  EXPECT_EQ(reg.tokens(), 200);  // capped at 2x
}

// --------------------------------------------------------------------------
// QosRegFile
// --------------------------------------------------------------------------

TEST(RegFile, ProgramsRegulatorThroughRegisters) {
  sim::Simulator s;
  Regulator reg(s, RegulatorConfig{});
  BandwidthMonitor mon(s, MonitorConfig{});
  QosRegFile rf(&reg, &mon);
  rf.write(Reg::kWindowNs, 2000);
  rf.write(Reg::kBudget, 512);
  rf.write(Reg::kCtrl, 0);
  EXPECT_EQ(reg.config().window_ps, 2000 * sim::kPsPerNs);
  EXPECT_EQ(reg.config().budget_bytes, 512u);
  EXPECT_FALSE(reg.enabled());
  EXPECT_EQ(rf.read(Reg::kBudget), 512u);
  EXPECT_EQ(rf.read(Reg::kWindowNs), 2000u);
  EXPECT_EQ(rf.read(Reg::kCtrl), 0u);
  rf.write(Reg::kCtrl, 1);
  EXPECT_TRUE(reg.enabled());
}

TEST(RegFile, CtrlRestartReloadsCreditAndRestartsWindow) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 128;
  rc.window_ps = 1000;
  Regulator reg(s, rc);
  QosRegFile rf(&reg, nullptr);
  LineFactory lf;
  s.schedule_at(0, [&] { reg.on_grant(lf.make(0, 128), 0); });  // exhausts
  s.schedule_at(300, [&] {
    // A plain enable write never refills (pinned set_budget/set_enabled
    // semantics) ...
    rf.write(Reg::kCtrl, 1);
    EXPECT_TRUE(reg.exhausted());
    // ... but the self-clearing restart command (bit 1) reloads a full
    // window of credit right now and restarts the replenish schedule.
    rf.write(Reg::kCtrl, 1u | 2u);
    EXPECT_FALSE(reg.exhausted());
    EXPECT_EQ(reg.tokens(), 128);
    EXPECT_EQ(reg.stats().throttled_ps, 300u);
    EXPECT_EQ(rf.read(Reg::kCtrl), 1u);  // restart bit reads back as 0
  });
  s.schedule_at(400, [&] { reg.on_grant(lf.make(0, 128), 400); });
  s.schedule_at(1250, [&] {
    // The pre-restart boundary at t=1000 is stale: the restarted window
    // replenishes at t=1300, so the gate is still shut here.
    EXPECT_TRUE(reg.exhausted());
  });
  s.run_until(1400);
  EXPECT_FALSE(reg.exhausted());
  EXPECT_EQ(reg.tokens(), 128);
}

// Re-enabling a gate whose credit is still spent: STATUS and exhausted()
// must read shut, and the rest of the window counts as throttled — for
// the aggregate bucket and for a bank bucket alike.
class RegFileReenable : public ::testing::TestWithParam<bool> {};

TEST_P(RegFileReenable, ReenableWithoutCreditShutsGateAgain) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 64;
  rc.window_ps = 10'000;
  std::optional<dram::AddressMapper> banks;
  if (GetParam()) {
    rc.bank_budget_bytes = {64};  // bank 0 limited; address 0 is bank 0
    banks.emplace(dram::TimingConfig{},
                  dram::MappingPolicy::kBankPartitioned);
  }
  Regulator reg(s, rc, banks);
  QosRegFile rf(&reg, nullptr);
  LineFactory lf;
  const axi::LineRequest line = lf.make(0, 64);
  s.schedule_at(0, [&] { reg.on_grant(line, 0); });  // shuts the gate
  s.schedule_at(1000, [&] { rf.write(Reg::kCtrl, 0); });
  s.schedule_at(2000, [&] {
    rf.write(Reg::kCtrl, 1);
    EXPECT_FALSE(reg.allow(line, 2000));
    EXPECT_TRUE(reg.exhausted());
    EXPECT_EQ(rf.read(Reg::kStatus), 1u);
  });
  s.run_until(10'500);  // the replenish at t=10 ns reopens the gate
  EXPECT_TRUE(reg.allow(line, s.now()));
  EXPECT_EQ(rf.read(Reg::kStatus), 0u);
  EXPECT_EQ(reg.stats().throttled_ps, 9000u);  // [0, 1) + [2, 10) ns
}

INSTANTIATE_TEST_SUITE_P(BucketKey, RegFileReenable,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Bank" : "Aggregate";
                         });

TEST(RegFile, MonitorCountersReadable) {
  sim::Simulator s;
  BandwidthMonitor mon(s, MonitorConfig{});
  QosRegFile rf(nullptr, &mon);
  LineFactory lf;
  mon.on_grant(lf.make(0, 0x1234), 0);
  EXPECT_EQ(rf.monitor_total_bytes(), 0x1234u);
  // Read-only registers ignore writes.
  rf.write(Reg::kMonTotalLo, 0);
  EXPECT_EQ(rf.monitor_total_bytes(), 0x1234u);
}

TEST(RegFile, RequiresAtLeastOneBlock) {
  EXPECT_THROW(QosRegFile(nullptr, nullptr), fgqos::ConfigError);
}

// --------------------------------------------------------------------------
// SoftMemguard
// --------------------------------------------------------------------------

TEST(SoftMemguard, StallsAfterIsrLatencyAndReleasesAtPeriod) {
  sim::Simulator s;
  SoftMemguardConfig mc;
  mc.period_ps = 100'000;      // 100 ns period (short for the test)
  mc.isr_latency_ps = 10'000;  // 10 ns ISR path
  SoftMemguard mg(s, mc);
  mg.set_budget(3, 128);
  LineFactory lf;
  // Burn the budget at t=0..1: overflow at the 3rd grant.
  s.schedule_at(0, [&] {
    mg.on_grant(lf.make(3, 64), 0);
    mg.on_grant(lf.make(3, 64), 0);
    EXPECT_TRUE(mg.allow(lf.make(3, 64), 0));  // not yet stalled
    mg.on_grant(lf.make(3, 64), 0);            // 192 > 128: overflow
  });
  // Before the ISR lands the master is still free (violation window).
  s.schedule_at(5'000, [&] {
    EXPECT_TRUE(mg.allow(lf.make(3, 64), 5'000));
    mg.on_grant(lf.make(3, 64), 5'000);  // more violation bytes
  });
  s.schedule_at(15'000, [&] {
    EXPECT_FALSE(mg.allow(lf.make(3, 64), 15'000));  // stalled now
    EXPECT_TRUE(mg.stalled(3));
  });
  s.schedule_at(105'000, [&] {
    EXPECT_FALSE(mg.stalled(3));  // released at the period boundary
    EXPECT_TRUE(mg.allow(lf.make(3, 64), 105'000));
  });
  s.run_until(200'000);
  EXPECT_EQ(mg.master_stats(3).periods_throttled, 1u);
  // Violation: 64 over budget at overflow + 64 granted before the stall.
  EXPECT_EQ(mg.master_stats(3).violation_bytes, 128u);
  EXPECT_EQ(mg.master_stats(3).throttled_ps, 100'000u - 10'000u);
}

TEST(SoftMemguard, UnregulatedMasterUnaffected) {
  sim::Simulator s;
  SoftMemguard mg(s, SoftMemguardConfig{});
  LineFactory lf;
  EXPECT_TRUE(mg.allow(lf.make(9, 4096), 0));
  mg.on_grant(lf.make(9, 4096), 0);
  EXPECT_TRUE(mg.allow(lf.make(9, 4096), 0));
}

// --------------------------------------------------------------------------
// PremArbiter + CMRI
// --------------------------------------------------------------------------

TEST(Prem, OnlyOwnerPasses) {
  sim::Simulator s;
  PremConfig pc;
  pc.schedule = {0, 1, 2};
  pc.slot_ps = 1000;
  PremArbiter prem(s, pc);
  LineFactory lf;
  EXPECT_EQ(prem.owner(), 0);
  EXPECT_TRUE(prem.allow(lf.make(0, 64), 0));
  EXPECT_FALSE(prem.allow(lf.make(1, 64), 0));
  s.run_until(1500);
  EXPECT_EQ(prem.owner(), 1);
  EXPECT_FALSE(prem.allow(lf.make(0, 64), s.now()));
  EXPECT_TRUE(prem.allow(lf.make(1, 64), s.now()));
  s.run_until(3500);
  EXPECT_EQ(prem.owner(), 0);  // wrapped around
  EXPECT_EQ(prem.slots_elapsed(), 3u);
}

TEST(Cmri, NonOwnerInjectsUpToBudget) {
  sim::Simulator s;
  PremConfig pc;
  pc.schedule = {0, 1};
  pc.slot_ps = 1000;
  PremArbiter prem(s, pc);
  CmriConfig cc;
  cc.injection_budget_bytes = 128;
  CmriInjector cmri(prem, cc);
  LineFactory lf;
  // Owner (0) is never limited.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(cmri.allow(lf.make(0, 64), 0));
    cmri.on_grant(lf.make(0, 64), 0);
  }
  // Non-owner (1) gets 128 bytes.
  EXPECT_TRUE(cmri.allow(lf.make(1, 64), 0));
  cmri.on_grant(lf.make(1, 64), 0);
  cmri.on_grant(lf.make(1, 64), 0);
  EXPECT_FALSE(cmri.allow(lf.make(1, 64), 0));
  EXPECT_EQ(cmri.remaining(1), 0u);
  EXPECT_EQ(cmri.injected_bytes(), 128u);
  // Next slot: budget refills (and master 1 becomes owner anyway).
  s.run_until(1100);
  EXPECT_EQ(prem.owner(), 1);
  EXPECT_TRUE(cmri.allow(lf.make(1, 64), s.now()));
  EXPECT_TRUE(cmri.allow(lf.make(0, 64), s.now()));  // 0 injects now
  EXPECT_EQ(cmri.remaining(0), 128u);
}

// --------------------------------------------------------------------------
// LaggedRegulator: qos::Regulator with an observation latency (coupling
// ablation)
// --------------------------------------------------------------------------

TEST(LaggedRegulator, ZeroLagBehavesLikeTight) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 128;
  rc.window_ps = 1000;
  rc.observation_latency_ps = 0;
  Regulator reg(s, rc);
  LineFactory lf;
  reg.on_grant(lf.make(0, 64), 0);
  reg.on_grant(lf.make(0, 64), 0);
  EXPECT_FALSE(reg.allow(lf.make(0, 64), 0));
  EXPECT_EQ(reg.stats().max_overshoot_bytes, 0u);
}

TEST(LaggedRegulator, LagAllowsOvershoot) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 128;
  rc.window_ps = 10'000;
  rc.observation_latency_ps = 5'000;  // half a window blind
  Regulator reg(s, rc);
  LineFactory lf;
  // Grants at t=0 are observed only at t=5000, so the gate stays open.
  s.schedule_at(0, [&] {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(reg.allow(lf.make(0, 64), s.now()));
      reg.on_grant(lf.make(0, 64), s.now());
    }
  });
  s.schedule_at(6'000, [&] {
    // Observations arrived: gate is now shut.
    EXPECT_FALSE(reg.allow(lf.make(0, 64), s.now()));
  });
  s.run_until(20'000);
  // 384 granted vs 128 budget: 256 overshoot recorded at window close.
  EXPECT_EQ(reg.stats().max_overshoot_bytes, 256u);
}

// --------------------------------------------------------------------------
// Reconfiguration while throttled (regression tests)
// --------------------------------------------------------------------------

TEST(Regulator, SetWindowWhileExhaustedClosesThrottleInterval) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 128;
  rc.window_ps = 1000;
  Regulator reg(s, rc);
  LineFactory lf;
  s.schedule_at(0, [&] { reg.on_grant(lf.make(0, 128), 0); });  // exhausts
  s.schedule_at(300, [&] {
    reg.set_window(5000);
    // Time throttled under the old window is accounted at the change, and
    // a fresh interval starts; the shut window is not counted twice.
    EXPECT_EQ(reg.stats().throttled_ps, 300u);
    EXPECT_TRUE(reg.exhausted());
    EXPECT_EQ(reg.stats().exhausted_windows, 1u);
    EXPECT_EQ(reg.stats().last_exhausted_at, 300u);
  });
  s.run_until(6000);  // new-window replenish lands at t=5300
  EXPECT_FALSE(reg.exhausted());
  EXPECT_TRUE(reg.allow(lf.make(0, 64), s.now()));
  EXPECT_EQ(reg.stats().throttled_ps, 5300u);
  EXPECT_EQ(reg.stats().exhausted_windows, 1u);
}

TEST(Regulator, SetBudgetWhileExhaustedRestartsInterval) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 128;
  rc.window_ps = 1000;
  Regulator reg(s, rc);
  LineFactory lf;
  s.schedule_at(0, [&] { reg.on_grant(lf.make(0, 192), 0); });  // overdraft
  s.schedule_at(400, [&] {
    reg.set_budget(256);  // credit stays negative: gate remains shut
    EXPECT_TRUE(reg.exhausted());
    EXPECT_EQ(reg.stats().throttled_ps, 400u);
    EXPECT_EQ(reg.stats().last_exhausted_at, 400u);
    EXPECT_EQ(reg.stats().exhausted_windows, 1u);
  });
  s.run_until(1500);  // replenish at t=1000 repays the debt from 256
  EXPECT_FALSE(reg.exhausted());
  EXPECT_EQ(reg.tokens(), 192);
  EXPECT_EQ(reg.stats().throttled_ps, 1000u);
}

TEST(Regulator, SetBudgetToZeroShutsGateMidWindow) {
  sim::Simulator s;
  RegulatorConfig rc;
  rc.budget_bytes = 256;
  rc.window_ps = 1000;
  Regulator reg(s, rc);
  LineFactory lf;
  s.schedule_at(0, [&] { reg.on_grant(lf.make(0, 100), 0); });
  s.schedule_at(250, [&] {
    EXPECT_TRUE(reg.allow(lf.make(0, 64), 250));
    reg.set_budget(0);  // clamps credit to zero: newly exhausted
  });
  s.schedule_at(600, [&] {
    EXPECT_FALSE(reg.allow(lf.make(0, 64), 600));
    EXPECT_TRUE(reg.exhausted());
    EXPECT_EQ(reg.stats().exhausted_windows, 1u);
    EXPECT_EQ(reg.stats().last_exhausted_at, 250u);
  });
  s.run_until(800);
}

TEST(Monitor, SetWindowFoldsPartialWindowIntoStats) {
  sim::Simulator s;
  MonitorConfig mc;
  mc.window_ps = 1000;
  mc.keep_window_trace = true;
  BandwidthMonitor mon(s, mc);
  LineFactory lf;
  s.schedule_at(100, [&] { mon.on_grant(lf.make(0, 64), 100); });
  s.schedule_at(300, [&] { mon.on_grant(lf.make(0, 32), 300); });
  s.schedule_at(400, [&] {
    mon.set_window(500);
    // The partially-elapsed window is closed, not discarded.
    EXPECT_EQ(mon.last_window_bytes(), 96u);
    EXPECT_EQ(mon.windows_closed(), 1u);
    EXPECT_EQ(mon.window_bytes(), 0u);
    ASSERT_EQ(mon.window_trace().size(), 1u);
    EXPECT_EQ(mon.window_trace()[0], 96u);
  });
  s.schedule_at(700, [&] { mon.on_grant(lf.make(0, 16), 700); });
  s.run_until(950);  // first new-length boundary at t=900
  EXPECT_EQ(mon.last_window_bytes(), 16u);
  EXPECT_EQ(mon.windows_closed(), 2u);
  EXPECT_EQ(mon.total_bytes(), 112u);
}

TEST(Monitor, SetWindowWithNoBytesClosesNothing) {
  sim::Simulator s;
  MonitorConfig mc;
  mc.window_ps = 1000;
  mc.keep_window_trace = true;
  BandwidthMonitor mon(s, mc);
  s.schedule_at(400, [&] { mon.set_window(500); });
  s.run_until(450);
  // An empty partial window is restarted silently, not recorded.
  EXPECT_EQ(mon.windows_closed(), 0u);
  EXPECT_TRUE(mon.window_trace().empty());
}

TEST(SoftMemguard, RaisingBudgetMidPeriodReleasesStall) {
  sim::Simulator s;
  SoftMemguardConfig mc;
  mc.period_ps = 100'000;
  mc.isr_latency_ps = 10'000;
  SoftMemguard mg(s, mc);
  mg.set_budget(3, 128);
  LineFactory lf;
  s.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      mg.on_grant(lf.make(3, 64), 0);  // 192 > 128: overflow IRQ raised
    }
  });
  s.schedule_at(20'000, [&] {
    EXPECT_TRUE(mg.stalled(3));  // ISR landed at t=10'000
    mg.set_budget(3, 1000);      // now within quota: release immediately
    EXPECT_FALSE(mg.stalled(3));
    EXPECT_TRUE(mg.allow(lf.make(3, 64), 20'000));
    EXPECT_EQ(mg.master_stats(3).throttled_ps, 10'000u);
  });
  s.run_until(150'000);
  // No further stall time accrued after the release.
  EXPECT_EQ(mg.master_stats(3).throttled_ps, 10'000u);
}

TEST(SoftMemguard, SetBudgetCancelsInFlightOverflowIrq) {
  sim::Simulator s;
  SoftMemguardConfig mc;
  mc.period_ps = 100'000;
  mc.isr_latency_ps = 10'000;
  SoftMemguard mg(s, mc);
  mg.set_budget(3, 128);
  LineFactory lf;
  s.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      mg.on_grant(lf.make(3, 64), 0);  // overflow: ISR in flight
    }
  });
  s.schedule_at(5'000, [&] {
    mg.set_budget(3, 1000);  // cancels the pending overflow
  });
  s.schedule_at(15'000, [&] {
    // The ISR landed at t=10'000 on a master whose overflow was cancelled;
    // it must back off instead of stalling (or tripping an assert).
    EXPECT_FALSE(mg.stalled(3));
    EXPECT_TRUE(mg.allow(lf.make(3, 64), 15'000));
  });
  s.run_until(150'000);
  EXPECT_EQ(mg.master_stats(3).periods_throttled, 0u);
  EXPECT_EQ(mg.master_stats(3).throttled_ps, 0u);
}

TEST(SoftMemguard, LoweringBudgetBelowUsageRaisesOverflow) {
  sim::Simulator s;
  SoftMemguardConfig mc;
  mc.period_ps = 100'000;
  mc.isr_latency_ps = 10'000;
  SoftMemguard mg(s, mc);
  mg.set_budget(3, 1000);
  LineFactory lf;
  s.schedule_at(0, [&] { mg.on_grant(lf.make(3, 500), 0); });  // within budget
  s.schedule_at(1'000, [&] {
    mg.set_budget(3, 256);  // already 500 granted: overflow IRQ raised now
    // The overage was granted legitimately under the old budget.
    EXPECT_EQ(mg.master_stats(3).violation_bytes, 0u);
  });
  s.schedule_at(5'000, [&] {
    mg.on_grant(lf.make(3, 64), 5'000);  // granted while the IRQ is in flight
  });
  s.schedule_at(15'000, [&] {
    EXPECT_TRUE(mg.stalled(3));  // ISR landed at t=11'000
  });
  s.run_until(150'000);
  EXPECT_EQ(mg.master_stats(3).periods_throttled, 1u);
  EXPECT_EQ(mg.master_stats(3).violation_bytes, 64u);
  EXPECT_EQ(mg.master_stats(3).throttled_ps, 100'000u - 11'000u);
}

// --------------------------------------------------------------------------
// Regulator reopen signal against a sleeping crossbar
// --------------------------------------------------------------------------

/// Slave that accepts every line and finishes it 10 ns later.
class DelaySlave final : public axi::SlaveIf {
 public:
  DelaySlave(sim::Simulator& sim, axi::ResponseSink& sink)
      : sim_(sim), sink_(&sink) {}
  [[nodiscard]] bool can_accept(const axi::LineRequest&,
                                sim::TimePs) const override {
    return true;
  }
  void accept(axi::LineRequest line, sim::TimePs now) override {
    sim_.schedule_at(now + 10'000,
                     [this, line]() { sink_->line_done(line, sim_.now()); });
  }

 private:
  sim::Simulator& sim_;
  axi::ResponseSink* sink_;
};

/// Records the time of every grant on a port.
struct GrantTimes final : axi::TxnObserver {
  std::vector<sim::TimePs> at;
  void on_issue(const axi::Transaction&, sim::TimePs) override {}
  void on_grant(const axi::LineRequest&, sim::TimePs now) override {
    at.push_back(now);
  }
  void on_complete(const axi::Transaction&, sim::TimePs) override {}
};

/// One port behind a 600 MHz crossbar (1667 ps edges), gated by a
/// 64 B / 100 ns regulator, with four single-line reads queued at t=0: the
/// first is granted at 10002 ps (request latency 10 ns) and exhausts the
/// window's budget.
struct GatedXbar {
  static RegulatorConfig reg_config() {
    RegulatorConfig rc;
    rc.budget_bytes = 64;
    rc.window_ps = 100'000;
    return rc;
  }

  sim::Simulator sim;
  sim::ClockDomain clk = sim::ClockDomain::from_mhz("x", 600);
  axi::Interconnect xbar{sim, clk, axi::InterconnectConfig{}};
  axi::MasterPort& port = xbar.add_master(axi::MasterPortConfig{});
  DelaySlave slave{sim, xbar};
  Regulator reg{sim, reg_config()};
  GrantTimes grants;
  testing::FnClient client;

  GatedXbar() {
    xbar.set_slave(slave);
    port.add_gate(reg);
    port.add_observer(grants);
    for (axi::Addr a = 0; a < 4 * 64; a += 64) {
      port.issue(client, axi::Dir::kRead, a, 64);
    }
  }
};

TEST(RegulatorSleep, ExhaustedGateSleepsUntilReplenish) {
  GatedXbar f;
  // One more tick after the grant, once the port's rate limiter frees up
  // (23335 ps), finds the next head blocked by the gate.
  f.sim.run_until(30'000);
  ASSERT_EQ(f.grants.at.size(), 1u);
  EXPECT_EQ(f.grants.at[0], 10'002u);
  EXPECT_TRUE(f.reg.exhausted());
  const std::uint64_t ticks = f.xbar.ticks_fired();
  EXPECT_EQ(ticks, 3u);
  f.sim.run_until(99'999);
  EXPECT_EQ(f.xbar.ticks_fired(), ticks);  // no crossbar tick while shut
  f.sim.run_until(150'000);
  ASSERT_EQ(f.grants.at.size(), 2u);
  // First crossbar edge at or after the window boundary.
  EXPECT_EQ(f.grants.at[1], f.clk.next_edge_at_or_after(100'000));
  EXPECT_EQ(f.grants.at[1], 100'020u);
}

/// A host write that reopens the shut gate mid-window.
enum class Reopen : std::uint8_t { kDisable, kRateAndRestart };

void reopen(Regulator& reg, Reopen how) {
  if (how == Reopen::kDisable) {
    reg.set_enabled(false);
  } else {
    reg.set_rate(5e9);  // never refills on its own ...
    reg.restart_window();  // ... the CTRL restart reloads the credit
  }
}

class RegulatorSleepReopen : public ::testing::TestWithParam<Reopen> {};

TEST_P(RegulatorSleepReopen, HostWriteBetweenRunsGrantsOnNextEdge) {
  GatedXbar f;
  const sim::TimePs edge = 30 * f.clk.period_ps();  // 50010 ps, an edge
  f.sim.run_until(edge);
  ASSERT_EQ(f.grants.at.size(), 1u);
  reopen(f.reg, GetParam());
  f.sim.run_until(edge + 3 * f.clk.period_ps());
  ASSERT_GE(f.grants.at.size(), 2u);
  // A crossbar ticking every cycle has already evaluated the edge at which
  // the write landed; the grant comes on the edge after it.
  EXPECT_EQ(f.grants.at[1], edge + f.clk.period_ps());
}

TEST_P(RegulatorSleepReopen, HostWriteEventGrantsOnSameEdge) {
  GatedXbar f;
  const sim::TimePs edge = 30 * f.clk.period_ps();
  const Reopen how = GetParam();
  f.sim.schedule_at(edge, [&f, how]() { reopen(f.reg, how); });
  f.sim.run_until(edge + 3 * f.clk.period_ps());
  ASSERT_GE(f.grants.at.size(), 2u);
  // Events run before the ticks of their timestamp.
  EXPECT_EQ(f.grants.at[1], edge);
}

INSTANTIATE_TEST_SUITE_P(Writes, RegulatorSleepReopen,
                         ::testing::Values(Reopen::kDisable,
                                           Reopen::kRateAndRestart),
                         [](const ::testing::TestParamInfo<Reopen>& p) {
                           return p.param == Reopen::kDisable
                                      ? "SetEnabledFalse"
                                      : "SetRateAndRestart";
                         });

}  // namespace
}  // namespace fgqos::qos

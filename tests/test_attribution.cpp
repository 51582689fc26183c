// Interference-attribution tests: the blame-matrix engine (telescoping
// charges, sentinel folding, window rollover, exports, dominant-cell
// lookup, metrics publication), full-platform conservation of measured
// vs charged stall, scheduling invariance with attribution on, span
// charging by sleeping components against per-cycle charging by forced
// polling ones, totals that do not depend on the window, detaching, the
// host cost of attribution, sweep blame-CSV determinism across worker
// counts, and the SLA watchdog's hysteresis and reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "controller_pins.hpp"
#include "exec/scenario_runner.hpp"
#include "fault/fault_plan.hpp"
#include "axi/interconnect.hpp"
#include "fn_client.hpp"
#include "forced_poll.hpp"
#include "qos/sla_watchdog.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/metrics.hpp"
#include "util/json.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

using telemetry::AttributionEngine;
using telemetry::Cause;

// --- Engine unit tests ----------------------------------------------------

TEST(Attribution, TelescopingChargesAndFinalSlice) {
  telemetry::MetricsRegistry reg;
  AttributionEngine eng(reg, sim::kPsPerMs);
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");

  axi::Transaction txn;
  telemetry::WaitState w;
  eng.begin_wait(w, 0);
  eng.charge(w, 0, 1, Cause::kFabricArb, 100, &txn);
  eng.charge(w, 0, 1, Cause::kDramBankConflict, 250, &txn);
  // The final slice [250,400] goes to the last observed blocker, and the
  // 64 delayed bytes are credited to that same cell.
  eng.end_wait(w, 0, 64, 400, &txn);
  eng.finish(400);

  EXPECT_FALSE(w.open);
  EXPECT_EQ(eng.total(0, 1, Cause::kFabricArb).stall_ps, 100u);
  EXPECT_EQ(eng.total(0, 1, Cause::kDramBankConflict).stall_ps, 300u);
  EXPECT_EQ(eng.total(0, 1, Cause::kDramBankConflict).bytes, 64u);
  EXPECT_EQ(eng.victim_stall_ps(0), 400u);
  EXPECT_EQ(eng.blame_ps(0, 1), 400u);
  EXPECT_EQ(eng.cause_ps(0, Cause::kDramBankConflict), 300u);
  EXPECT_EQ(txn.attr_charged_ps, 400u);
}

TEST(Attribution, ZeroLengthWaitChargesNothing) {
  telemetry::MetricsRegistry reg;
  AttributionEngine eng(reg, sim::kPsPerMs);
  eng.register_master(0, "cpu");
  telemetry::WaitState w;
  eng.begin_wait(w, 500);
  eng.end_wait(w, 0, 64, 500, nullptr);
  EXPECT_FALSE(w.open);
  EXPECT_EQ(eng.victim_stall_ps(0), 0u);
  EXPECT_EQ(eng.total(0, 0, Cause::kSelf).bytes, 0u);
}

TEST(Attribution, NormalizeFoldsSentinelAndSelfArbitration) {
  telemetry::MetricsRegistry reg;
  AttributionEngine eng(reg, sim::kPsPerMs);
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");
  // An unknown occupant folds onto the victim, keeping the cause...
  eng.charge_span(0, telemetry::kNoOwner, Cause::kDramRefresh, 0, 100,
                  nullptr);
  EXPECT_EQ(eng.total(0, 0, Cause::kDramRefresh).stall_ps, 100u);
  // ...and losing arbitration to your own traffic is not interference.
  eng.charge_span(0, 0, Cause::kFabricArb, 100, 250, nullptr);
  EXPECT_EQ(eng.total(0, 0, Cause::kSelf).stall_ps, 150u);
  EXPECT_EQ(eng.total(0, 0, Cause::kFabricArb).stall_ps, 0u);
}

TEST(Attribution, WindowRolloverPublishesAndResetsMatrix) {
  telemetry::MetricsRegistry reg;
  AttributionEngine eng(reg, 1000);  // 1 ns windows
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");
  std::size_t notified = 0;
  eng.add_window_listener(
      [&](const AttributionEngine::WindowRecord&) { ++notified; });

  eng.charge_span(0, 1, Cause::kFabricArb, 0, 400, nullptr);
  // Crossing into the second window closes the first.
  eng.charge_span(0, 1, Cause::kFabricArb, 1500, 1600, nullptr);
  eng.finish(2000);
  eng.finish(2000);  // idempotent

  ASSERT_EQ(eng.windows().size(), 2u);
  EXPECT_EQ(notified, 2u);
  const auto& w0 = eng.windows()[0];
  const auto& w1 = eng.windows()[1];
  EXPECT_EQ(w0.start, 0u);
  EXPECT_EQ(w0.end, 1000u);
  EXPECT_EQ(w1.start, 1000u);
  EXPECT_EQ(w1.end, 2000u);
  // Per-window matrices are disjoint (the rollover reset the live one);
  // the cumulative matrix has both.
  const std::size_t cell =
      (0u * 2u + 1u) * telemetry::kCauseCount +
      static_cast<std::size_t>(Cause::kFabricArb);
  EXPECT_EQ(w0.cells[cell].stall_ps, 400u);
  EXPECT_EQ(w1.cells[cell].stall_ps, 100u);
  EXPECT_EQ(eng.total(0, 1, Cause::kFabricArb).stall_ps, 500u);

  axi::MasterId agg = 0;
  Cause cause = Cause::kSelf;
  std::uint64_t ps = 0;
  EXPECT_TRUE(eng.dominant(w0.cells, 0, agg, cause, ps));
  EXPECT_EQ(agg, 1);
  EXPECT_EQ(cause, Cause::kFabricArb);
  EXPECT_EQ(ps, 400u);
  EXPECT_FALSE(eng.dominant(w0.cells, 1, agg, cause, ps));
}

TEST(Attribution, UnkeptWindowsStillReachListenersAndTotals) {
  telemetry::MetricsRegistry reg;
  AttributionEngine eng(reg, 1000);
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");
  eng.keep_windows(false);
  const std::size_t cell =
      (0u * 2u + 1u) * telemetry::kCauseCount +
      static_cast<std::size_t>(Cause::kFabricArb);
  std::vector<std::uint64_t> seen;
  eng.add_window_listener([&](const AttributionEngine::WindowRecord& w) {
    seen.push_back(w.cells[cell].stall_ps);
  });
  eng.charge_span(0, 1, Cause::kFabricArb, 0, 400, nullptr);
  eng.charge_span(0, 1, Cause::kFabricArb, 1500, 1600, nullptr);
  eng.finish(2000);
  EXPECT_TRUE(eng.windows().empty());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{400, 100}));
  EXPECT_EQ(eng.total(0, 1, Cause::kFabricArb).stall_ps, 500u);
  eng.publish_metrics();
  EXPECT_EQ(reg.counter("telemetry.attribution.windows").value(), 2u);
  std::ostringstream csv;
  eng.write_csv(csv, /*header=*/false);
  EXPECT_EQ(csv.str(), "total,0,2000,cpu,hp0,fabric_arb,500,0\n");
}

// window_edge() with a per-component cache answers what the dividing one
// does, on the walks components make: mostly forward, each tick asking
// for edge c - 1 and then c, with jumps over naps and the odd step back,
// for windows shorter than one clock period and windows that are no
// multiple of it.
TEST(Attribution, CachedWindowEdgeMatchesDividing) {
  std::mt19937_64 rng(18);
  for (const sim::TimePs period : {833u, 1000u, 3003u}) {
    const sim::ClockDomain clk("c", period);
    for (const sim::TimePs window :
         {1u, 400u, 800u, 833u, 1000u, 1667u, 10'007u, 100'000u}) {
      telemetry::MetricsRegistry reg;
      AttributionEngine eng(reg, window);
      AttributionEngine::EdgeCache cache;
      sim::Cycles c = 0;
      for (int step = 0; step < 20'000; ++step) {
        if (c > 0) {
          ASSERT_EQ(eng.window_edge(clk, c - 1, cache),
                    eng.window_edge(clk, c - 1))
              << "period " << period << " window " << window << " c " << c;
        }
        ASSERT_EQ(eng.window_edge(clk, c, cache), eng.window_edge(clk, c))
            << "period " << period << " window " << window << " c " << c;
        const std::uint64_t r = rng() % 16;
        if (r == 0 && c > 4) {
          c -= rng() % 4;  // step back
        } else if (r < 4) {
          c += 1 + rng() % (3 * window / period + 3);  // a nap
        } else {
          ++c;
        }
      }
    }
  }
}

TEST(Attribution, CsvAndJsonExports) {
  telemetry::MetricsRegistry reg;
  AttributionEngine eng(reg, 1000);
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");
  eng.charge_span(0, 1, Cause::kDramBusTurnaround, 0, 400, nullptr);
  eng.finish(1000);

  std::ostringstream csv;
  eng.write_csv(csv, /*header=*/true, /*row_prefix=*/"400,",
                /*header_prefix=*/"point,");
  const std::string text = csv.str();
  EXPECT_NE(text.find("point,scope,window_start_ps,window_end_ps,victim,"
                      "aggressor,cause,stall_ps,bytes\n"),
            std::string::npos);
  EXPECT_NE(text.find("400,window,0,1000,cpu,hp0,dram_bus_turnaround,400,0"),
            std::string::npos);
  EXPECT_NE(text.find("400,total,0,1000,cpu,hp0,dram_bus_turnaround,400,0"),
            std::string::npos);

  std::ostringstream js;
  eng.write_json(js);
  const util::JsonValue doc = util::JsonValue::parse(js.str());
  EXPECT_EQ(doc.at("window_ps").as_number(), 1000.0);
  EXPECT_EQ(doc.at("masters").as_array().size(), 2u);
  EXPECT_EQ(doc.at("causes").as_array().size(), telemetry::kCauseCount);
  ASSERT_EQ(doc.at("windows").as_array().size(), 1u);
  const util::JsonValue& cells0 =
      doc.at("windows").as_array()[0].at("cells");
  ASSERT_EQ(cells0.as_array().size(), 1u);
  EXPECT_EQ(cells0.as_array()[0].at("cause").as_string(),
            "dram_bus_turnaround");
  EXPECT_EQ(doc.at("totals").as_array()[0].at("stall_ps").as_number(), 400.0);
  EXPECT_EQ(doc.at("residual_ps").as_number(), 0.0);
}

TEST(Attribution, PublishesSummaryMetrics) {
  telemetry::MetricsRegistry reg;
  AttributionEngine eng(reg, 1000);
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");
  eng.charge_span(0, 1, Cause::kFabricArb, 0, 300, nullptr);
  eng.note_residual(7);
  eng.finish(1000);
  eng.publish_metrics();
  eng.publish_metrics();  // reset-then-add: idempotent
  EXPECT_EQ(reg.counter("attr.cpu.stall_ps").value(), 300u);
  EXPECT_EQ(reg.counter("attr.cpu.cause.fabric_arb_ps").value(), 300u);
  EXPECT_EQ(reg.counter("attr.cpu.from.hp0_ps").value(), 300u);
  EXPECT_EQ(reg.counter("attr.hp0.stall_ps").value(), 0u);
  EXPECT_EQ(reg.counter("telemetry.attribution.windows").value(), 1u);
  EXPECT_EQ(reg.gauge("telemetry.attribution.residual_ps").value(), 7.0);
}

// --- Full-platform integration --------------------------------------------

// EXP1-style scenario: one latency-critical pointer chaser versus three
// streaming-write aggressors, no regulation. The blame matrix must (a)
// conserve — every measured queueing picosecond charged somewhere, zero
// residual — and (b) point at the write aggressors, with the write-drain
// bus turnaround as the heaviest interference cause.
TEST(AttributionSoc, WriteAggressorsDominateVictimBlame) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = 4;
  wl::PointerChaseConfig pc;
  pc.accesses_per_iteration = 512;
  chip.add_core(cc, wl::make_pointer_chase(pc));
  for (std::size_t i = 0; i < 3; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.pattern = wl::Pattern::kSeqWrite;
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 100 + i;
    chip.add_traffic_gen(i % cfg.accel_ports, tg);
  }
  AttributionEngine& eng = chip.enable_attribution(100 * sim::kPsPerUs);
  ASSERT_TRUE(chip.run_until_cores_finished(500 * sim::kPsPerMs));
  chip.finish_telemetry();

  // Conservation: the per-transaction ledger balanced on every completion.
  EXPECT_EQ(eng.residual_ps(), 0u);

  const double stall = static_cast<double>(eng.victim_stall_ps(0));
  ASSERT_GT(stall, 0.0);
  double from_aggressors = 0;
  for (axi::MasterId a = 1; a <= 3; ++a) {
    from_aggressors += static_cast<double>(eng.blame_ps(0, a));
  }
  EXPECT_GE(from_aggressors, 0.9 * stall)
      << "victim stall " << stall << " ps, from aggressors "
      << from_aggressors << " ps";
  const std::uint64_t turnaround =
      eng.cause_ps(0, Cause::kDramBusTurnaround);
  EXPECT_GT(turnaround, eng.cause_ps(0, Cause::kFabricArb));
  EXPECT_GT(turnaround, eng.cause_ps(0, Cause::kDramBankConflict));
  EXPECT_GT(turnaround, eng.cause_ps(0, Cause::kDramRefresh));

  // The summary metrics mirror the matrix.
  telemetry::MetricsRegistry& reg = chip.collect_metrics();
  EXPECT_EQ(static_cast<double>(eng.victim_stall_ps(0)),
            reg.scalar("attr.cpu.stall_ps"));
  EXPECT_EQ(reg.gauge("telemetry.attribution.residual_ps").value(), 0.0);
}

// Attribution is pure observation: enabling it must not move a single
// event. The crossbar and the DRAM controller sleep with attribution on or
// off, and a third run forces both to tick every cycle (ForcedPoll), so
// this also holds sleeping components to polling ones: every
// collect_stats() value must match except the kernel's own counters
// (sim.*) and the attribution outputs (attr.*, telemetry.*).
struct PerturbCase {
  const char* name;
  bool regulate;
  const char* faults;  ///< fault-plan JSON, nullptr for none
  wl::Pattern pattern = wl::Pattern::kSeqRead;  ///< aggressors' pattern
  std::uint64_t iterations = 2;  ///< pointer-chase iterations (run length)
  std::size_t aggressors = 2;    ///< one per accelerator port
  /// Regulator observation lag: the gate also shuts on a late debit,
  /// outside any grant.
  sim::TimePs lag_ps = 0;
  std::size_t channels = 1;  ///< DRAM channels
};

std::ostream& operator<<(std::ostream& os, const PerturbCase& c) {
  return os << c.name;
}

/// A finished platform run; the pollers die before the chip.
struct PerturbRun {
  std::unique_ptr<soc::Soc> chip;
  std::vector<std::unique_ptr<testing::ForcedPoll>> pollers;
};

/// One platform run of \p pc, finished; with blame windows of
/// \p blame_window_ps (stored unless \p keep_windows is false) when
/// \p blame, and with the crossbar and every controller ticking every
/// cycle when \p poll.
PerturbRun run_perturb_case(const PerturbCase& pc, bool blame, bool poll,
                            sim::TimePs blame_window_ps = 10 * sim::kPsPerUs,
                            bool keep_windows = true) {
  soc::SocConfig cfg;
  cfg.default_regulator.observation_latency_ps = pc.lag_ps;
  cfg.dram_channels = pc.channels;
  PerturbRun run{std::make_unique<soc::Soc>(cfg), {}};
  soc::Soc* chip = run.chip.get();
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = pc.iterations;
  wl::PointerChaseConfig chase;
  chase.accesses_per_iteration = 256;
  chip->add_core(cc, wl::make_pointer_chase(chase));
  for (std::size_t i = 0; i < pc.aggressors; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 7 + i;
    tg.pattern = pc.pattern;
    chip->add_traffic_gen(i, tg);
  }
  if (pc.regulate) {
    qos::Regulator& r = *chip->qos_block(1).regulator;
    r.set_rate(200e6);
    r.set_enabled(true);
  }
  if (pc.faults != nullptr) {
    chip->arm_faults(fault::FaultPlan::from_json(pc.faults), 1);
  }
  if (blame) {
    chip->enable_attribution(blame_window_ps).keep_windows(keep_windows);
  }
  if (poll) {
    run.pollers.push_back(
        testing::force_poll(chip->xbar(), chip->attribution()));
    for (std::size_t ch = 0; ch < chip->dram_channel_count(); ++ch) {
      run.pollers.push_back(
          testing::force_poll(chip->dram(ch), chip->attribution()));
    }
  }
  EXPECT_TRUE(chip->run_until_cores_finished(500 * sim::kPsPerMs));
  chip->finish_telemetry();
  return run;
}

/// Crossbar plus controller ticks.
std::uint64_t memory_path_ticks(soc::Soc& chip) {
  std::uint64_t ticks = chip.xbar().ticks_fired();
  for (std::size_t ch = 0; ch < chip.dram_channel_count(); ++ch) {
    ticks += chip.dram(ch).ticks_fired();
  }
  return ticks;
}

class AttributionSocScenario
    : public ::testing::TestWithParam<PerturbCase> {};

TEST_P(AttributionSocScenario, EnablingAttributionDoesNotPerturbScheduling) {
  const PerturbCase& pc = GetParam();
  const auto run = [&pc](bool blame, bool poll) {
    const PerturbRun r = run_perturb_case(pc, blame, poll);
    soc::Soc* chip = r.chip.get();
    sim::StatsRegistry stats;
    chip->collect_stats(stats);
    std::map<std::string, double> kept;
    for (const auto& [name, value] : stats.all()) {
      if (name.rfind("sim.", 0) != 0 && name.rfind("attr.", 0) != 0 &&
          name.rfind("telemetry.", 0) != 0) {
        kept.emplace(name, value);
      }
    }
    return std::pair(chip->now(), kept);
  };
  const auto [end_off, off] = run(false, false);
  const auto [end_on, on] = run(true, false);
  const auto [end_polled, polled] = run(true, true);
  EXPECT_EQ(end_off, end_on);
  EXPECT_EQ(end_off, end_polled);
  if (pc.faults != nullptr) {
    EXPECT_GT(end_off, 1200 * sim::kPsPerUs);  // past every fault window
  }
  EXPECT_GT(off.size(), 50u);
  EXPECT_EQ(off, on);
  EXPECT_EQ(off, polled);
}

// The faults mirror ci/fault_smoke.json: SLVERR responses, a periodic
// port stall, dropped replenish IRQs, a frozen monitor and a refresh
// storm, all inside the run.
const PerturbCase kPerturbCases[] = {
    PerturbCase{"HwRegulation", true, nullptr},
    PerturbCase{"Unregulated", false, nullptr},
    // Four write floods keep the DRAM write queue deep.
    PerturbCase{"UnregulatedWrites", false, nullptr, wl::Pattern::kSeqWrite,
                1, 4},
    PerturbCase{"HwRegulationWithFaults", true, R"({
      "seed": 7,
      "faults": [
        {"kind": "axi_slverr", "target": 1, "prob": 0.02},
        {"kind": "port_stall", "target": 2, "period_us": 200,
         "duration_us": 10},
        {"kind": "reg_irq_drop", "target": 1, "prob": 0.25,
         "start_us": 100, "end_us": 1200},
        {"kind": "monitor_freeze", "target": 3, "prob": 1,
         "start_us": 400, "end_us": 900},
        {"kind": "refresh_storm", "factor": 8, "start_us": 600}
      ]
    })", wl::Pattern::kSeqRead, 36},
    PerturbCase{"LaggedRegulation", true, nullptr, wl::Pattern::kSeqWrite, 2,
                3, 500 * sim::kPsPerNs},
    PerturbCase{"TwoChannels", false, nullptr, wl::Pattern::kSeqRead, 2, 3, 0,
                2}};

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AttributionSocScenario, ::testing::ValuesIn(kPerturbCases),
    [](const ::testing::TestParamInfo<PerturbCase>& p) {
      return p.param.name;
    });

// Span charging is per-cycle charging: a component that sleeps and charges
// each wait in spans, one per blame cell, must record exactly what the
// same component records when forced to tick, and its engine to settle,
// every cycle (one slice per cycle) — every window, every total, every
// bank total — with a conservation residual of 0, while ticking less. The
// cases are the platform scenarios above and the attribution streams
// ControllerPinned records.
struct OracleRun {
  std::vector<std::uint64_t> blame;   ///< testing::blame_record()
  std::vector<std::uint64_t> totals;  ///< testing::blame_totals()
  std::uint64_t ticks;                ///< memory-path ticks
};

struct OracleCase {
  std::string name;
  sim::TimePs window_ps;  ///< the case's blame window
  std::function<OracleRun(bool poll, sim::TimePs window_ps,
                          bool keep_windows)>
      run;
};

OracleRun oracle_run(const AttributionEngine& eng, std::uint64_t ticks) {
  return OracleRun{testing::blame_record(eng), testing::blame_totals(eng),
                   ticks};
}

std::ostream& operator<<(std::ostream& os, const OracleCase& c) {
  return os << c.name;
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  for (const PerturbCase& pc : kPerturbCases) {
    cases.push_back(
        {pc.name, 10 * sim::kPsPerUs,
         [pc](bool poll, sim::TimePs window, bool keep) {
           const PerturbRun r = run_perturb_case(pc, true, poll, window, keep);
           return oracle_run(*r.chip->attribution(),
                             memory_path_ticks(*r.chip));
         }});
  }
  for (const dram::PinCase& pc : dram::kPinCases) {
    if (!pc.attribution) {
      continue;
    }
    std::string name = std::string("Controller_") + pc.name;
    std::replace(name.begin(), name.end(), '/', '_');
    cases.push_back(
        {name, sim::kPsPerUs, [pc](bool poll, sim::TimePs window, bool keep) {
           dram::PinResult r = dram::run_pin_case(pc, poll, window, keep);
           return OracleRun{std::move(r.blame), std::move(r.totals),
                            r.ticks};
         }});
  }
  return cases;
}

class AttributionOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(AttributionOracle, SpanChargingMatchesPerCycleCharging) {
  const OracleCase& c = GetParam();
  const OracleRun polled = c.run(true, c.window_ps, true);
  const OracleRun slept = c.run(false, c.window_ps, true);
  ASSERT_GT(polled.blame.size(), 1u);
  EXPECT_EQ(polled.blame.back(), 0u);  // the record ends with the residual
  EXPECT_EQ(slept.blame, polled.blame);
  EXPECT_LT(slept.ticks, polled.ticks);
}

// The forced-poll oracle above runs the same blame passes on both sides, so
// a pass that skips a wait whose cell did change goes unseen there. A
// window shorter than one clock period makes every edge a window edge, on
// which every pass classifies every wait; the windows only split the
// charges, so every total, bank total and the residual must come out as
// with long windows, where most passes skip the waits that kept their
// inputs. (The short windows are not stored: there is one per edge.)
TEST_P(AttributionOracle, TotalsDoNotDependOnTheWindow) {
  const OracleCase& c = GetParam();
  const OracleRun long_windows = c.run(false, 100 * sim::kPsPerUs, false);
  const OracleRun edge_windows = c.run(false, 800, false);
  ASSERT_GT(long_windows.totals.size(), 1u);
  EXPECT_EQ(long_windows.totals.back(), 0u);  // residual
  EXPECT_EQ(edge_windows.totals, long_windows.totals);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AttributionOracle, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& p) {
      return p.param.name;
    });

/// Slave with one slot: while it holds a line, every other admitted head
/// waits on it with the crossbar asleep.
class OneSlotSlave final : public axi::SlaveIf {
 public:
  OneSlotSlave(sim::Simulator& sim, axi::ResponseSink& sink)
      : sim_(sim), sink_(sink) {}
  [[nodiscard]] bool can_accept(const axi::LineRequest&,
                                sim::TimePs) const override {
    return !busy_;
  }
  void accept(axi::LineRequest line, sim::TimePs now) override {
    busy_ = true;
    sim_.schedule_at(now + 50'000, [this, line] {
      busy_ = false;
      sink_.space_freed();
      sink_.line_done(line, sim_.now());
    });
  }

 private:
  sim::Simulator& sim_;
  axi::ResponseSink& sink_;
  bool busy_ = false;
};

/// Gate shut and reopened by the test, signalling each flip.
struct ShutGate final : axi::TxnGate {
  bool shut = false;
  [[nodiscard]] bool allow(const axi::LineRequest&,
                           sim::TimePs) const override {
    return !shut;
  }
  void on_grant(const axi::LineRequest&, sim::TimePs) override {}
  void set_shut(bool s) {
    shut = s;
    if (s) {
      closed();
    } else {
      reopened();
    }
  }
};

// A head the gates admit but the slave refuses loses arbitration to the
// line the slave holds. A port stall, or a gate shutting outside
// on_grant(), turns that blame to self without a grant; the sleeping
// crossbar must see both on the very next edge, as a polling one does.
TEST(AttributionOracle, ContestedHeadTurnsSelfWithoutAGrant) {
  const auto run = [](bool poll, bool stall) {
    sim::Simulator sim;
    sim::ClockDomain clk{"x", 1000};
    axi::Interconnect xbar(sim, clk, axi::InterconnectConfig{"xbar", 1});
    axi::MasterPort& a = xbar.add_master(axi::MasterPortConfig{});
    axi::MasterPort& b = xbar.add_master(axi::MasterPortConfig{});
    OneSlotSlave slave(sim, xbar);
    xbar.set_slave(slave);
    ShutGate gate;
    if (!stall) {
      b.add_gate(gate);
    }
    telemetry::MetricsRegistry reg;
    AttributionEngine eng(reg, sim::kPsPerUs);
    eng.register_master(0, "a");
    eng.register_master(1, "b");
    xbar.set_attribution(&eng);
    const auto poller = poll ? testing::force_poll(xbar, &eng) : nullptr;
    testing::FnClient client;
    a.issue(client, axi::Dir::kRead, 0x0, 64);
    b.issue(client, axi::Dir::kRead, 0x1000, 64);
    if (stall) {
      sim.schedule_at(25'000, [&b] { b.inject_stall(5'000); });
    } else {
      sim.schedule_at(35'000, [&gate] { gate.set_shut(true); });
      sim.schedule_at(45'000, [&gate] { gate.set_shut(false); });
    }
    sim.run_for(sim::kPsPerUs);
    eng.finish(sim.now());
    EXPECT_EQ(b.stats().txns_completed.value(), 1u);
    return std::pair(testing::blame_record(eng),
                     eng.total(1, 1, Cause::kSelf).stall_ps);
  };
  for (const bool stall : {true, false}) {
    const auto [polled, polled_self] = run(true, stall);
    const auto [slept, slept_self] = run(false, stall);
    EXPECT_GT(polled_self, 0u) << (stall ? "stall" : "gate");
    EXPECT_EQ(slept, polled) << (stall ? "stall" : "gate");
  }
}

// Re-wiring the crossbar to another engine withdraws its settler from the
// first: settling the old engine must not charge the new one, and after a
// detach no engine reaches the crossbar.
TEST(Attribution, RewiredCrossbarLeavesNoSettlerBehind) {
  sim::Simulator sim;
  sim::ClockDomain clk{"x", 1000};
  axi::Interconnect xbar(sim, clk, axi::InterconnectConfig{"xbar", 1});
  axi::MasterPort& a = xbar.add_master(axi::MasterPortConfig{});
  axi::MasterPort& b = xbar.add_master(axi::MasterPortConfig{});
  OneSlotSlave slave(sim, xbar);
  xbar.set_slave(slave);
  telemetry::MetricsRegistry reg;
  AttributionEngine first(reg, sim::kPsPerUs);
  AttributionEngine second(reg, sim::kPsPerUs);
  for (AttributionEngine* eng : {&first, &second}) {
    eng->register_master(0, "a");
    eng->register_master(1, "b");
  }
  xbar.set_attribution(&first);
  xbar.set_attribution(&second);
  testing::FnClient client;
  a.issue(client, axi::Dir::kRead, 0x0, 64);
  b.issue(client, axi::Dir::kRead, 0x1000, 64);
  sim.run_for(30'000);  // b's head waits on the line a holds in the slave
  const std::vector<std::uint64_t> before = testing::blame_totals(second);
  first.settle();
  EXPECT_EQ(testing::blame_totals(second), before);
  second.settle();
  EXPECT_GT(second.blame_ps(1, 0), 0u);
  xbar.set_attribution(nullptr);
  const std::vector<std::uint64_t> detached = testing::blame_totals(second);
  first.settle();
  second.settle();
  sim.run_for(sim::kPsPerUs);
  EXPECT_EQ(b.stats().txns_completed.value(), 1u);
  EXPECT_EQ(testing::blame_totals(second), detached);
}

// Host cost of attribution: on the fgqos_sim --scheme hw platform the
// memory path sleeps with blame on nearly as much as with it off. A
// change that makes attribution poll again multiplies the kernel's tick
// count (5x when it did) on any machine.
TEST(AttributionSoc, BlameKeepsTheMemoryPathAsleep) {
  const auto ticks = [](bool blame) {
    scenario::Spec spec;
    spec.platform = soc::preset_by_name("zcu102");
    spec.aggressors = scenario::standard_aggressors(4, wl::Pattern::kSeqRead,
                                                    100);
    spec.scheme = scenario::Scheme::kHw;
    spec.regulated_ports = scenario::first_ports(4);
    cpu::CoreConfig cc;
    cc.name = "critical";
    spec.critical =
        scenario::Critical{cc, [] { return wl::make_pointer_chase({}); }};
    scenario::Observers obs;
    obs.blame_window_ps = blame ? 100 * sim::kPsPerUs : 0;
    scenario::Scenario s = scenario::build(spec, obs, 100);
    s.chip->run_for(sim::kPsPerMs);
    s.finish();
    return s.chip->sim().tick_count();
  };
  const std::uint64_t off = ticks(false);
  const std::uint64_t on = ticks(true);
  EXPECT_LE(static_cast<double>(on), 1.5 * static_cast<double>(off))
      << "ticks with blame " << on << ", without " << off;
}

// The sweep merges pre-rendered blame rows in submission order, so the
// combined CSV must be byte-identical whatever the worker count.
TEST(AttributionSoc, SweepBlameCsvIsDeterministicAcrossJobs) {
  const auto sweep = [](std::size_t jobs) {
    const std::vector<std::uint64_t> iters = {1, 2, 3};
    exec::ScenarioRunner runner({jobs, 42});
    const auto rows =
        runner.map(iters.size(), [&](const exec::JobContext& ctx) {
          soc::SocConfig cfg;
          soc::Soc chip(cfg);
          cpu::CoreConfig cc;
          cc.name = "critical";
          cc.max_iterations = iters[ctx.index];
          wl::PointerChaseConfig pc;
          pc.accesses_per_iteration = 128;
          chip.add_core(cc, wl::make_pointer_chase(pc));
          for (std::size_t i = 0; i < 2; ++i) {
            wl::TrafficGenConfig tg;
            tg.name = "agg" + std::to_string(i);
            tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
            tg.seed = ctx.seed + i;
            chip.add_traffic_gen(i, tg);
          }
          chip.enable_attribution(50 * sim::kPsPerUs);
          EXPECT_TRUE(chip.run_until_cores_finished(500 * sim::kPsPerMs));
          chip.finish_telemetry();
          std::ostringstream os;
          chip.attribution()->write_csv(
              os, /*header=*/false,
              /*row_prefix=*/std::to_string(ctx.index) + ",");
          return os.str();
        });
    std::string merged;
    for (const std::string& r : rows) {
      merged += r;
    }
    return merged;
  };
  const std::string serial = sweep(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, sweep(4));
}

// --- SLA watchdog ----------------------------------------------------------

TEST(SlaWatchdog, BandwidthTripRespectsHysteresis) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = 0;  // run for the whole duration
  chip.add_core(cc, wl::make_pointer_chase({}));
  const sim::TimePs window = 10 * sim::kPsPerUs;
  AttributionEngine& eng = chip.enable_attribution(window);
  qos::SlaWatchdog dog(eng, chip.telemetry().metrics());
  qos::SlaSpec spec;
  spec.min_bandwidth_mbps = 1e9;  // impossible guarantee
  spec.trip_windows = 2;
  spec.clear_windows = 2;
  dog.watch(chip.cpu_port(), spec);

  chip.run_for(sim::kPsPerMs);
  chip.finish_telemetry();

  ASSERT_EQ(dog.violations().size(), 1u);  // no re-raise while active
  const qos::Violation& v = dog.violations()[0];
  EXPECT_EQ(v.kind, qos::ViolationKind::kBandwidth);
  EXPECT_EQ(v.master, chip.cpu_port().id());
  // Hysteresis: the first bad window alone must not trip.
  EXPECT_GE(v.window_end, 2 * window);
  EXPECT_LT(v.measured, v.bound);
  EXPECT_TRUE(dog.in_violation(chip.cpu_port().id()));
  EXPECT_EQ(chip.telemetry().metrics().counter("qos.sla.cpu.violations")
                .value(),
            1u);
  EXPECT_EQ(chip.telemetry().metrics().gauge("qos.sla.cpu.in_violation")
                .value(),
            1.0);
  std::ostringstream report;
  dog.write_report(report);
  EXPECT_NE(report.str().find("bandwidth"), std::string::npos);
  EXPECT_NE(report.str().find("cpu"), std::string::npos);
}

TEST(SlaWatchdog, LatencyAndInterferenceObjectivesTripUnderLoad) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = 0;
  chip.add_core(cc, wl::make_pointer_chase({}));
  for (std::size_t i = 0; i < 2; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.pattern = wl::Pattern::kSeqWrite;
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 100 + i;
    chip.add_traffic_gen(i, tg);
  }
  AttributionEngine& eng = chip.enable_attribution(10 * sim::kPsPerUs);
  qos::SlaWatchdog dog(eng, chip.telemetry().metrics());
  qos::SlaSpec spec;
  spec.max_p99_latency_ps = 1;            // any completion violates
  spec.max_interference_fraction = 1e-6;  // any stall on others violates
  dog.watch(chip.cpu_port(), spec);

  chip.run_for(sim::kPsPerMs);
  chip.finish_telemetry();

  bool latency = false, interference = false;
  for (const qos::Violation& v : dog.violations()) {
    if (v.kind == qos::ViolationKind::kLatencyP99) {
      latency = true;
    }
    if (v.kind == qos::ViolationKind::kInterference) {
      interference = true;
      // The violation names the aggressor to regulate.
      EXPECT_GT(v.dominant_stall_ps, 0u);
      EXPECT_NE(v.dominant_aggressor, telemetry::kNoOwner);
    }
  }
  EXPECT_TRUE(latency);
  EXPECT_TRUE(interference);
}

TEST(SlaWatchdog, CleanRunRaisesNothing) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = 2;
  chip.add_core(cc, wl::make_pointer_chase({}));
  AttributionEngine& eng = chip.enable_attribution(100 * sim::kPsPerUs);
  qos::SlaWatchdog dog(eng, chip.telemetry().metrics());
  qos::SlaSpec spec;
  spec.max_p99_latency_ps = sim::kPsPerMs;     // generous
  spec.max_interference_fraction = 0.99;       // generous
  dog.watch(chip.cpu_port(), spec);
  ASSERT_TRUE(chip.run_until_cores_finished(500 * sim::kPsPerMs));
  chip.finish_telemetry();
  EXPECT_TRUE(dog.violations().empty());
  EXPECT_FALSE(dog.in_violation(chip.cpu_port().id()));
}

}  // namespace
}  // namespace fgqos

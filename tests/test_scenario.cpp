/// \file test_scenario.cpp
/// \brief The shared scenario builder, its schemes against a forced-polled
///        memory path, and the tools' shared option parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "forced_poll.hpp"
#include "qos/ddrc_throttle.hpp"
#include "qos/envelope.hpp"
#include "qos/regulator.hpp"
#include "scenario/scenario.hpp"
#include "scenario/tool_args.hpp"
#include "telemetry/journal.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/serving.hpp"

namespace fgqos {
namespace {

using scenario::Journal;
using scenario::Scheme;

/// Two aggressors on their own HP ports, no critical task.
scenario::Spec two_aggressors(Scheme scheme) {
  scenario::Spec spec;
  spec.aggressors =
      scenario::standard_aggressors(2, wl::Pattern::kSeqRead, 100);
  spec.scheme = scheme;
  spec.regulated_ports = scenario::first_ports(2);
  return spec;
}

bool journal_has(const telemetry::DecisionJournal& j,
                 const std::string& action) {
  return std::any_of(j.entries().begin(), j.entries().end(),
                     [&](const auto& e) { return e.action == action; });
}

/// Expects \p fn to throw a ConfigError whose message contains \p needle.
template <typename Fn>
void expect_config_error(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "no ConfigError (wanted one naming " << needle << ")";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

scenario::ToolArgs parse(std::vector<const char*> argv, bool sla = false) {
  argv.insert(argv.begin(), "tool");
  const util::ArgParser args(static_cast<int>(argv.size()), argv.data());
  return scenario::parse_tool_args(args, 3, "hw", sla);
}

TEST(Scenario, WriteFillsTheBundleWithFixedNames) {
  scenario::Observers obs;
  obs.lifecycle_metrics = true;
  obs.blame_window_ps = 50 * sim::kPsPerUs;
  obs.journal = Journal::kRun;
  scenario::Scenario s = scenario::build(two_aggressors(Scheme::kHw), obs, 1);
  s.chip->run_for(100 * sim::kPsPerUs);
  s.finish();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fgqos_bundle_test";
  std::filesystem::remove_all(dir);
  scenario::make_bundle_dir(dir.string());
  s.write(dir.string(), telemetry::RunManifest{}, /*drop_host_timing=*/true);
  // Metrics always; blame and journal because they ran; nothing else.
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"blame.csv", "blame.json",
                                             "journal.jsonl", "metrics.csv",
                                             "metrics.json"}));
  std::ifstream metrics(dir / "metrics.csv");
  const std::string text((std::istreambuf_iterator<char>(metrics)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text.find("sim.wall"), std::string::npos);
  EXPECT_NE(text.find("port.hp0."), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Scenario, StandardAggressorsLayout) {
  const auto gens = scenario::standard_aggressors(
      3, wl::Pattern::kSeqWrite, 40, 128ull << 20, 8ull << 20, 1);
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_EQ(gens[2].name, "agg2");
  EXPECT_EQ(gens[2].base, 0x8000'0000u + 2 * (128ull << 20));
  EXPECT_EQ(gens[2].seed, 42u);
  EXPECT_EQ(gens[2].footprint_bytes, 8ull << 20);
  EXPECT_EQ(gens[2].pattern, wl::Pattern::kSeqWrite);
  // The first `thrash` generators are single-line row-miss thrashers.
  EXPECT_EQ(gens[0].pattern, wl::Pattern::kRandomRead);
  EXPECT_EQ(gens[0].burst_bytes, 64u);
  EXPECT_EQ(gens[0].max_outstanding, 48u);
  EXPECT_EQ(gens[1].burst_bytes, wl::TrafficGenConfig{}.burst_bytes);
}

TEST(Scenario, HwRegulatesExactlyTheListedPorts) {
  scenario::Spec spec = two_aggressors(Scheme::kHw);
  spec.regulated_ports = {1, 3};  // port 3 hosts no aggressor
  spec.budget_bps = 800e6;
  spec.window_ps = 2 * sim::kPsPerUs;
  scenario::Scenario s = scenario::build(spec, {}, 1);
  ASSERT_EQ(s.aggressors.size(), 2u);
  EXPECT_EQ(s.critical, nullptr);
  for (std::size_t port = 0; port < 4; ++port) {
    const qos::Regulator& reg = *s.chip->qos_block(1 + port).regulator;
    const bool listed = port == 1 || port == 3;
    EXPECT_EQ(reg.config().enabled, listed) << port;
    if (listed) {
      EXPECT_EQ(reg.config().window_ps, 2 * sim::kPsPerUs);
      EXPECT_EQ(reg.config().budget_bytes,
                qos::budget_for_rate(800e6, 2 * sim::kPsPerUs));
    }
  }
}

TEST(Scenario, SwGatesASharedPortOnce) {
  // Two generators share the only HP port: each granted line must be
  // charged to the port's budget once, not once per generator.
  scenario::Spec spec = two_aggressors(Scheme::kSw);
  spec.platform.accel_ports = 1;
  spec.regulated_ports = scenario::first_ports(1);
  spec.budget_bps = 400e6;
  scenario::Scenario s = scenario::build(spec, {}, 1);
  ASSERT_NE(s.memguard, nullptr);
  s.chip->run_for(4 * sim::kPsPerMs);
  const double bps = s.aggressor_bps();
  EXPECT_GT(bps, 0.9 * 400e6);
  EXPECT_LT(bps, 1.25 * 400e6);
}

TEST(Scenario, GeneratorsSharingAPortEachGetTheirOwnCompletions) {
  // Eight generators on four HP ports: aggressor i sits on port i mod 4,
  // so every port carries two. Each completion goes to the generator that
  // issued it: every one completes bytes, and none ever holds more than
  // its window in flight.
  scenario::Spec spec;
  spec.aggressors =
      scenario::standard_aggressors(8, wl::Pattern::kSeqRead, 100);
  scenario::Scenario s = scenario::build(spec, {}, 1);
  ASSERT_EQ(s.aggressors.size(), 8u);
  EXPECT_EQ(&s.aggressors[0]->port(), &s.aggressors[4]->port());
  for (int step = 0; step < 50; ++step) {
    s.chip->run_for(10 * sim::kPsPerUs);
    for (const wl::TrafficGen* g : s.aggressors) {
      const wl::TrafficGenStats& st = g->stats();
      const std::uint64_t window =
          g->config().max_outstanding * g->config().burst_bytes;
      ASSERT_LE(st.completed_bytes, st.issued_bytes) << g->config().name;
      ASSERT_LE(st.issued_bytes - st.completed_bytes, window)
          << g->config().name;
    }
  }
  for (const wl::TrafficGen* g : s.aggressors) {
    EXPECT_GT(g->stats().completed_bytes, 0u) << g->config().name;
  }
}

TEST(Scenario, BulkWritersAndReadersSharingPortsAllComplete) {
  // The serving layout: the tenant on HP3 and bulk_masters(3) around it,
  // a streaming writer and a random reader on each of HP0-HP2.
  const wl::ServingSpec serving =
      scenario::kv_serving(100e3, 200 * sim::kPsPerUs);
  scenario::Spec spec;
  spec.serving = &serving;
  spec.aggressors = scenario::bulk_masters(3);
  scenario::Scenario s = scenario::build(spec, {}, 1);
  ASSERT_EQ(s.aggressors.size(), 6u);
  s.chip->run_for(200 * sim::kPsPerUs);
  std::size_t writers = 0;
  for (const wl::TrafficGen* g : s.aggressors) {
    writers += g->config().pattern == wl::Pattern::kSeqWrite ? 1u : 0u;
    EXPECT_GT(g->stats().completed_bytes, 0u) << g->config().name;
  }
  EXPECT_EQ(writers, 3u);
}

TEST(Scenario, PremStrictBlocksEveryHpPort) {
  scenario::Scenario s =
      scenario::build(two_aggressors(Scheme::kPremStrict), {}, 1);
  s.chip->run_for(200 * sim::kPsPerUs);
  EXPECT_EQ(s.aggressor_bps(), 0.0);
}

TEST(Scenario, JournalModeDecidesWhetherSetupWritesAreRecorded) {
  scenario::Observers obs;
  obs.journal = Journal::kSetupAndRun;
  scenario::Scenario setup =
      scenario::build(two_aggressors(Scheme::kHw), obs, 1);
  ASSERT_NE(setup.chip->journal(), nullptr);
  EXPECT_TRUE(journal_has(*setup.chip->journal(), "set_budget"));
  EXPECT_TRUE(journal_has(*setup.chip->journal(), "set_enabled"));

  obs.journal = Journal::kRun;
  scenario::Scenario run =
      scenario::build(two_aggressors(Scheme::kHw), obs, 1);
  ASSERT_NE(run.chip->journal(), nullptr);
  EXPECT_EQ(run.chip->journal()->size(), 0u);
}

TEST(Scenario, AdmissionRunsAfterTheJournalIsWired) {
  qos::CertifiedEnvelope env;
  env.capacity_bps = 10e9;
  env.max_reservable_frac = 0.8;
  env.certified_total_bps = 1.5e9;
  scenario::Spec spec = two_aggressors(Scheme::kHw);
  spec.budget_bps = 1e9;
  spec.envelope = &env;
  scenario::Observers obs;
  obs.journal = Journal::kRun;
  scenario::Scenario s = scenario::build(spec, obs, 1);
  ASSERT_NE(s.manager, nullptr);
  EXPECT_EQ(s.admitted, (std::vector<bool>{true, false}));
  EXPECT_TRUE(journal_has(*s.chip->journal(), "reserve_accept"));
  EXPECT_TRUE(journal_has(*s.chip->journal(), "reserve_reject"));
}

TEST(Scenario, SlaWatchdogIsWiredToTheJournal) {
  scenario::Spec spec = two_aggressors(Scheme::kNone);
  cpu::CoreConfig cc;
  cc.name = "critical";
  spec.critical =
      scenario::Critical{cc, [] { return wl::make_pointer_chase({}); }};
  scenario::Observers obs;
  obs.blame_window_ps = 50 * sim::kPsPerUs;
  obs.sla.max_p99_latency_ps = 1;  // unmeetable: trips after two windows
  obs.journal = Journal::kRun;
  scenario::Scenario s = scenario::build(spec, obs, 1);
  ASSERT_NE(s.sla, nullptr);
  ASSERT_NE(s.critical, nullptr);
  s.chip->run_for(400 * sim::kPsPerUs);
  s.finish();
  EXPECT_TRUE(journal_has(*s.chip->journal(), "sla_trip"));
}

TEST(Scenario, SlaWithoutBlameWindowIsRejected) {
  scenario::Observers obs;
  obs.sla.min_bandwidth_mbps = 10;
  expect_config_error(
      [&] { (void)scenario::build(two_aggressors(Scheme::kNone), obs, 1); },
      "blame window");
}

/// One serving tenant "lc" on HP port 3 for 1 ms.
wl::ServingSpec tenant_on_port3() {
  return wl::ServingSpec::from_json(
      R"({"duration_us": 1000, "tenants": [{"name": "lc", "port": 3}]})");
}

TEST(Scenario, AggressorsSkipServingPorts) {
  const wl::ServingSpec serving = tenant_on_port3();
  scenario::Spec spec;
  spec.serving = &serving;
  spec.aggressors =
      scenario::standard_aggressors(6, wl::Pattern::kSeqRead, 100);
  scenario::Scenario s = scenario::build(spec, {}, 1);
  ASSERT_EQ(s.aggressors.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(&s.aggressors[i]->port(), &s.chip->accel_port(i % 3)) << i;
  }
}

TEST(Scenario, AdaptiveDefenseWatchesTheProtectedPort) {
  const wl::ServingSpec serving = tenant_on_port3();
  scenario::Spec spec;
  spec.serving = &serving;
  spec.aggressors =
      scenario::standard_aggressors(3, wl::Pattern::kSeqRead, 100);
  spec.scheme = Scheme::kAdaptive;
  spec.regulated_ports = scenario::first_ports(3);
  spec.adaptive.period_ps = 50 * sim::kPsPerUs;
  scenario::Observers obs;
  obs.journal = Journal::kRun;
  scenario::Scenario s = scenario::build(spec, obs, 1);
  ASSERT_NE(s.monitor, nullptr);
  ASSERT_NE(s.adaptive, nullptr);
  s.chip->run_for(400 * sim::kPsPerUs);
  s.finish();
  // No critical core: the monitor sees exactly the tenant's reads.
  const std::uint64_t tenant_reads =
      s.chip->accel_port(3).stats().read_latency.count();
  EXPECT_GT(tenant_reads, 0u);
  EXPECT_EQ(s.monitor->histogram().count(), tenant_reads);
  EXPECT_GT(s.adaptive->stats().periods, 0u);
  const telemetry::DecisionJournal& j = *s.chip->journal();
  EXPECT_TRUE(journal_has(j, "increase") || journal_has(j, "decrease"));
}

TEST(Scenario, AdaptiveWithoutProtectedPortIsRejected) {
  expect_config_error(
      [] { (void)scenario::build(two_aggressors(Scheme::kAdaptive), {}, 1); },
      "protected port");
}

// --------------------------------------------------------------------------
// Every scheme's blockers against a forced-polled memory path
// --------------------------------------------------------------------------

/// The blockers one run exercises: a scheme's gates, MemGuard's faulty
/// IRQ path, or a throttling slave.
struct SchemeCase {
  const char* name;
  Scheme scheme;
  bool irq_faults = false;     ///< drop/delay MemGuard IRQs, retry on
  bool ddrc_throttle = false;  ///< DdrcThrottle in front of the DRAM
};

std::ostream& operator<<(std::ostream& os, const SchemeCase& c) {
  return os << c.name;
}

/// Records every grant: master, then time.
struct GrantLog final : axi::TxnObserver {
  std::vector<std::uint64_t> grants;
  void on_issue(const axi::Transaction&, sim::TimePs) override {}
  void on_grant(const axi::LineRequest& line, sim::TimePs now) override {
    grants.push_back(line.txn->master);
    grants.push_back(now);
  }
  void on_complete(const axi::Transaction&, sim::TimePs) override {}
};

/// What a run recorded.
struct SchemeRun {
  /// collect_stats() without sim.*, attr.* and telemetry.*, plus the
  /// MemGuard IRQ counters.
  std::map<std::string, double> stats;
  std::vector<std::uint64_t> blame;   ///< testing::blame_record(), if on
  std::vector<std::uint64_t> grants;  ///< GrantLog::grants
  double xbar_ticks = 0;              ///< sim.clocked.xbar.ticks
  double xbar_busy_ticks = 0;         ///< sim.clocked.xbar.busy_ticks
  double xbar_cycles = 0;             ///< crossbar cycles simulated
};

constexpr sim::TimePs kSchemeRunPs = 400 * sim::kPsPerUs;

/// Four sequential readers, plus a critical pointer chase when
/// \p critical, under \p c for kSchemeRunPs, with 100 us MemGuard
/// periods; with 10 us blame windows when \p blame, and with the crossbar
/// and every controller ticking every cycle when \p poll.
SchemeRun run_scheme(const SchemeCase& c, bool blame, bool poll,
                     bool critical = true) {
  scenario::Spec spec;
  if (critical) {
    cpu::CoreConfig cc;
    cc.name = "critical";
    spec.critical =
        scenario::Critical{cc, [] { return wl::make_pointer_chase({}); }};
  }
  spec.aggressors =
      scenario::standard_aggressors(4, wl::Pattern::kSeqRead, 100);
  spec.scheme = c.scheme;
  spec.regulated_ports = scenario::first_ports(4);
  spec.memguard.period_ps = 100 * sim::kPsPerUs;
  std::optional<fault::FaultPlan> faults;
  if (c.irq_faults) {
    spec.memguard.irq_retry = true;
    faults = fault::FaultPlan::from_json(R"({"seed": 3, "faults": [
        {"kind": "mg_irq_drop", "prob": 0.5},
        {"kind": "mg_irq_delay", "prob": 0.5, "delay_us": 7}]})");
    spec.faults = &*faults;
  }
  scenario::Observers obs;
  obs.blame_window_ps = blame ? 10 * sim::kPsPerUs : 0;
  scenario::Scenario s = scenario::build(spec, obs, 1);
  soc::Soc& chip = *s.chip;
  if (c.ddrc_throttle) {
    qos::DdrcThrottleConfig tc;
    tc.read_bps = 1.5e9;
    chip.insert_ddrc_throttle(tc);
  }
  GrantLog log;
  for (std::size_t i = 0; i < chip.xbar().master_count(); ++i) {
    chip.xbar().master(i).add_observer(log);
  }
  std::vector<std::unique_ptr<testing::ForcedPoll>> pollers;
  if (poll) {
    pollers.push_back(testing::force_poll(chip.xbar(), chip.attribution()));
    for (std::size_t ch = 0; ch < chip.dram_channel_count(); ++ch) {
      pollers.push_back(
          testing::force_poll(chip.dram(ch), chip.attribution()));
    }
  }
  chip.run_for(kSchemeRunPs);
  s.finish();
  SchemeRun run;
  sim::StatsRegistry stats;
  chip.collect_stats(stats);
  for (const auto& [name, value] : stats.all()) {
    if (name.rfind("sim.", 0) != 0 && name.rfind("attr.", 0) != 0 &&
        name.rfind("telemetry.", 0) != 0) {
      run.stats.emplace(name, value);
    }
  }
  if (s.memguard != nullptr) {
    const qos::SoftMemguardIrqStats& irq = s.memguard->irq_stats();
    run.stats["memguard.irqs_dropped"] = static_cast<double>(irq.irqs_dropped);
    run.stats["memguard.irqs_delayed"] = static_cast<double>(irq.irqs_delayed);
    run.stats["memguard.irqs_retried"] = static_cast<double>(irq.irqs_retried);
    run.stats["memguard.irqs_lost"] = static_cast<double>(irq.irqs_lost);
  }
  if (chip.attribution() != nullptr) {
    run.blame = testing::blame_record(*chip.attribution());
  }
  run.grants = std::move(log.grants);
  run.xbar_ticks = stats.get("sim.clocked.xbar.ticks");
  run.xbar_busy_ticks = stats.get("sim.clocked.xbar.busy_ticks");
  run.xbar_cycles = static_cast<double>(kSchemeRunPs) /
                    static_cast<double>(chip.xbar().clock().period_ps());
  return run;
}

const SchemeCase kSchemeCases[] = {
    {"Sw", Scheme::kSw},
    {"SwIrqFaults", Scheme::kSw, true},
    {"PremStrict", Scheme::kPremStrict},
    {"Prem", Scheme::kPrem},
    {"PremCmri", Scheme::kPremCmri},
    {"DdrcThrottle", Scheme::kNone, false, true},
};

class SchemeOracle : public ::testing::TestWithParam<SchemeCase> {};

// A sleeping memory path must be indistinguishable from one ticking every
// cycle, whatever blocks its ports: every simulated stat, every blame cell
// and every grant's master and edge must come out the same, with
// attribution off and on. A blocker that fails to signal a change shows
// up as a grant on a later edge.
TEST_P(SchemeOracle, SleepingMatchesForcedPoll) {
  const SchemeCase& c = GetParam();
  for (const bool blame : {false, true}) {
    const SchemeRun slept = run_scheme(c, blame, false);
    const SchemeRun polled = run_scheme(c, blame, true);
    EXPECT_GT(slept.stats.size(), 50u);
    EXPECT_EQ(slept.stats, polled.stats) << (blame ? "blame on" : "blame off");
    EXPECT_EQ(slept.blame, polled.blame) << (blame ? "blame on" : "blame off");
    EXPECT_EQ(slept.blame.empty(), !blame);
    EXPECT_EQ(slept.grants, polled.grants)
        << (blame ? "blame on" : "blame off");
  }
}

// Every blocker signals, so a crossbar whose ports MemGuard or PREM holds
// sleeps instead of polling. Under sw, prem and prem_cmri it ticks at most
// 1.5 times per tick that grants; a crossbar polling through the blocks
// ticks 3.9 to 14.4 times per granting tick here. Under prem_strict with no
// critical task nothing can ever be granted, and it ticks on under 1% of
// its cycles. Tick counts are exact, so this holds on any host. (The
// throttle case is not pinned: the controller's freed slots still wake the
// crossbar while the throttle refuses.)
TEST(SchemeTicks, CrossbarTicksToGrantNotToPoll) {
  for (const SchemeCase& c : kSchemeCases) {
    const bool strict = c.scheme == Scheme::kPremStrict;
    const SchemeRun r = run_scheme(c, false, false, !strict);
    SCOPED_TRACE(::testing::Message()
                 << c.name << ": " << r.xbar_ticks << " ticks, "
                 << r.xbar_busy_ticks << " granting, " << r.xbar_cycles
                 << " cycles");
    if (strict) {
      EXPECT_LT(r.xbar_ticks, 0.01 * r.xbar_cycles);
    } else if (!c.ddrc_throttle) {
      EXPECT_LE(r.xbar_ticks, 1.5 * r.xbar_busy_ticks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeOracle, ::testing::ValuesIn(kSchemeCases),
    [](const ::testing::TestParamInfo<SchemeCase>& p) {
      return std::string(p.param.name);
    });

TEST(ToolArgs, CountsRejectSignsFractionsAndText) {
  EXPECT_EQ(util::parse_count("12", "--jobs"), 12u);
  EXPECT_EQ(util::parse_count("0", "--jobs"), 0u);
  expect_config_error([] { (void)util::parse_count("-1", "--jobs"); },
                      "--jobs expects a non-negative integer, got '-1'");
  expect_config_error([] { (void)util::parse_count("2.7", "--values"); },
                      "'2.7'");
  expect_config_error([] { (void)util::parse_count("abc", "--values"); },
                      "'abc'");
  expect_config_error([] { (void)util::parse_count("", "--values"); },
                      "--values");
  EXPECT_DOUBLE_EQ(util::parse_number("2.5", "--values"), 2.5);
  expect_config_error([] { (void)util::parse_number("abc", "--values"); },
                      "--values expects a number, got 'abc'");
}

TEST(ToolArgs, TimeValuesMustBePositiveAndFinite) {
  EXPECT_DOUBLE_EQ(util::parse_positive("0.2", "--window-us"), 0.2);
  for (const char* bad : {"0", "-1", "nan", "inf", "-inf", "1e999", "x", ""}) {
    expect_config_error(
        [bad] { (void)util::parse_positive(bad, "--window-us"); },
        std::string("--window-us expects a positive number, got '") + bad +
            "'");
  }
  expect_config_error([] { (void)parse({"--window-us", "-1"}); },
                      "--window-us expects a positive number, got '-1'");
  expect_config_error(
      [] {
        (void)parse({"--out", "d", "--blame", "--blame-window-us", "0"});
      },
      "--blame-window-us expects a positive number, got '0'");
  expect_config_error(
      [] {
        (void)parse({"--out", "d", "--timeseries", "--timeseries-window-us",
                     "nan"});
      },
      "--timeseries-window-us expects a positive number, got 'nan'");
}

TEST(ToolArgs, NegativeAggressorCountIsRejected) {
  expect_config_error([] { (void)parse({"--aggressors", "-1"}); },
                      "--aggressors");
  expect_config_error([] { (void)parse({"--aggressors", "1.5"}); },
                      "--aggressors");
  EXPECT_EQ(parse({"--aggressors", "5"}).aggressors, 5u);
  EXPECT_EQ(parse({}).aggressors, 3u);
}

TEST(ToolArgs, SchemesAndDependentFlagsAreChecked) {
  expect_config_error([] { (void)parse({"--scheme", "prem"}); },
                      "unknown scheme 'prem'");
  expect_config_error(
      [] { (void)parse({"--scheme", "sw", "--envelope-spec", "e.json"}); },
      "--envelope-spec requires --scheme hw");
  expect_config_error([] { (void)parse({"--mapping", "diagonal"}); },
                      "diagonal");
}

TEST(ToolArgs, TuningFlagsNeedTheirObserverAndObserversNeedOut) {
  for (const char* flag :
       {"--trace", "--blame", "--timeseries", "--journal", "--profile"}) {
    expect_config_error([flag] { (void)parse({flag}); },
                        std::string(flag) + " requires --out");
  }
  expect_config_error(
      [] { (void)parse({"--out", "d", "--trace-filter", "qos"}); },
      "--trace-filter requires --trace");
  expect_config_error(
      [] { (void)parse({"--out", "d", "--blame-window-us", "20"}); },
      "--blame-window-us requires --blame");
  expect_config_error(
      [] { (void)parse({"--out", "d", "--timeseries-window-us", "5"}); },
      "--timeseries-window-us requires --timeseries");
  expect_config_error(
      [] { (void)parse({"--out", "d", "--timeseries-filter", "qos.*"}); },
      "--timeseries-filter requires --timeseries");
  // An SLA bound turns attribution on, so its window may be tuned without
  // --blame (and without a bundle); the SLA flags are the caller's.
  const scenario::ToolArgs sla =
      parse({"--sla-p99-us", "5", "--blame-window-us", "20"}, /*sla=*/true);
  EXPECT_EQ(sla.observers.blame_window_ps, 20 * sim::kPsPerUs);
  EXPECT_EQ(sla.observers.sla.max_p99_latency_ps, 5 * sim::kPsPerUs);
  expect_config_error(
      [] { (void)parse({"--blame-window-us", "20"}, /*sla=*/true); },
      "--blame-window-us requires --blame or an --sla-* bound");
}

TEST(ToolArgs, ObserversFollowTheExportFlags) {
  const scenario::ToolArgs t =
      parse({"--out", "run", "--trace", "--blame", "--blame-window-us", "20",
             "--timeseries", "--journal", "--profile"});
  EXPECT_EQ(t.out, "run");
  EXPECT_EQ(t.observers.trace_path, "run/trace.json");
  EXPECT_TRUE(t.observers.lifecycle_metrics);
  EXPECT_EQ(t.observers.blame_window_ps, 20 * sim::kPsPerUs);
  ASSERT_TRUE(t.observers.timeseries.has_value());
  EXPECT_EQ(t.observers.timeseries->window_ps, 100 * sim::kPsPerUs);
  EXPECT_EQ(t.observers.journal, Journal::kRun);
  EXPECT_TRUE(t.observers.profile);

  const scenario::Spec spec = t.spec(soc::SocConfig{});
  EXPECT_EQ(spec.scheme, Scheme::kHw);
  EXPECT_DOUBLE_EQ(spec.budget_bps, 400e6);
  EXPECT_EQ(spec.window_ps, sim::kPsPerUs);
  EXPECT_EQ(spec.faults, nullptr);

  const scenario::ToolArgs bundle = parse({"--out", "run"});
  EXPECT_TRUE(bundle.observers.lifecycle_metrics);
  EXPECT_EQ(bundle.observers.trace_path, "");
  EXPECT_EQ(bundle.observers.blame_window_ps, 0u);

  const scenario::ToolArgs quiet = parse({});
  EXPECT_FALSE(quiet.observers.lifecycle_metrics);
  EXPECT_EQ(quiet.observers.blame_window_ps, 0u);
  EXPECT_FALSE(quiet.observers.timeseries.has_value());
  EXPECT_EQ(quiet.observers.journal, Journal::kOff);
  EXPECT_FALSE(quiet.observers.profile);
}

}  // namespace
}  // namespace fgqos

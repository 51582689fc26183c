/// \file test_scenario.cpp
/// \brief The shared scenario builder and the tools' shared option parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "qos/envelope.hpp"
#include "qos/regulator.hpp"
#include "scenario/scenario.hpp"
#include "scenario/tool_args.hpp"
#include "telemetry/journal.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "workload/cpu_workloads.hpp"

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

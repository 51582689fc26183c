// Host-side hot-path profiler tests: tag registration idempotence,
// snapshot merge commutativity, coverage and component tags of a
// profiled platform run, determinism of the simulated results under
// profiling, the folded export, the JSON export's round trip through the
// report loader, the profile-comparison gate, and the runner's
// queue-depth/job-wall self-metrics.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exec/scenario_runner.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "soc/soc.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"
#include "util/config_error.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

soc::SocConfig profiled_config(bool profile) {
  soc::SocConfig cfg;
  cfg.profile = profile;
  return cfg;
}

telemetry::ProfileSnapshot profiled_run(std::uint64_t seed_offset) {
  soc::SocConfig cfg = profiled_config(true);
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.pattern = wl::Pattern::kRandomRead;
  tg.seed = 1 + seed_offset;
  chip.add_traffic_gen(0, tg);
  chip.run_for(2 * sim::kPsPerMs);
  return chip.profiler()->snapshot();
}

std::string snapshot_json(const telemetry::ProfileSnapshot& s) {
  std::ostringstream os;
  s.write_json(os);
  return os.str();
}

TEST(Profiler, TagRegistrationIsIdempotent) {
  telemetry::HostProfiler prof;
  const std::uint32_t a = prof.register_tag("qos.regulator");
  const std::uint32_t b = prof.register_tag("qos.regulator");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, prof.register_tag("qos.monitor"));

  // Through the simulator: the same name resolves to the same id on
  // every call, so components re-registering across re-arms are stable.
  sim::Simulator sim;
  prof.attach(sim);
  const std::uint32_t t1 = sim.profile_tag("workload.traffic_gen");
  const std::uint32_t t2 = sim.profile_tag("workload.traffic_gen");
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, 0u);
}

TEST(Profiler, UnattachedSimulatorHandsOutUntagged) {
  sim::Simulator sim;
  EXPECT_EQ(sim.profile_tag("anything.at.all"), 0u);
}

TEST(Profiler, SnapshotMergeIsOrderIndependent) {
  const telemetry::ProfileSnapshot a = profiled_run(0);
  const telemetry::ProfileSnapshot b = profiled_run(100);

  telemetry::ProfileSnapshot ab = a;
  ab.merge(b);
  telemetry::ProfileSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(snapshot_json(ab), snapshot_json(ba));
  EXPECT_EQ(ab.total_cycles, a.total_cycles + b.total_cycles);
  EXPECT_EQ(ab.events_dispatched, a.events_dispatched + b.events_dispatched);
}

TEST(Profiler, ProfiledRunHasCoverageAndComponentTags) {
  const telemetry::ProfileSnapshot snap = profiled_run(0);
  EXPECT_GT(snap.events_dispatched, 0u);
  EXPECT_GT(snap.ticks_dispatched, 0u);
  EXPECT_GT(snap.total_cycles, 0u);
  // Fence-post attribution: per-tag cycles sum to the measured total,
  // so coverage is 1 by construction (the acceptance floor is 0.95).
  EXPECT_GE(snap.coverage(), 0.95);
  EXPECT_LE(snap.coverage(), 1.0 + 1e-12);
  // The component tags of a default platform show up by name.
  bool saw_regulator = false;
  bool saw_tick = false;
  for (const telemetry::ProfileTagEntry& t : snap.tags) {
    saw_regulator |= t.name == "qos.regulator";
    saw_tick |= t.name.rfind("tick.", 0) == 0;
  }
  EXPECT_TRUE(saw_regulator);
  EXPECT_TRUE(saw_tick);
}

TEST(Profiler, SimulatedStatsIdenticalProfileOnVsOff) {
  sim::StatsRegistry on;
  sim::StatsRegistry off;
  for (const bool profile : {true, false}) {
    soc::SocConfig cfg = profiled_config(profile);
    soc::Soc chip(cfg);
    wl::TrafficGenConfig tg;
    tg.pattern = wl::Pattern::kRandomRead;
    chip.add_traffic_gen(0, tg);
    chip.run_for(2 * sim::kPsPerMs);
    chip.collect_stats(profile ? on : off);
  }
  EXPECT_EQ(on.all().size(), off.all().size());
  EXPECT_TRUE(on.all() == off.all());
}

TEST(Profiler, FoldedExportWritesOneLinePerWeightedTag) {
  telemetry::ProfileSnapshot snap;
  snap.tags = {{"kernel.overhead", 3, 40},
               {"qos.regulator", 7, 0},
               {"tick.xbar", 9, 1200}};
  std::ostringstream os;
  snap.write_folded(os);
  // fgqos;<group>;<tag> <cycles>, zero-weight frames dropped.
  EXPECT_EQ(os.str(),
            "fgqos;kernel;kernel.overhead 40\n"
            "fgqos;tick;tick.xbar 1200\n");

  // A profiled run writes one frame per tag that took cycles.
  const telemetry::ProfileSnapshot run = profiled_run(0);
  std::ostringstream folded;
  run.write_folded(folded);
  std::istringstream is(folded.str());
  std::size_t weighted = 0;
  for (const telemetry::ProfileTagEntry& t : run.tags) {
    if (t.cycles == 0) {
      continue;
    }
    ++weighted;
    std::string line;
    ASSERT_TRUE(std::getline(is, line)) << t.name;
    EXPECT_EQ(line, "fgqos;" + t.name.substr(0, t.name.find('.')) + ";" +
                        t.name + " " + std::to_string(t.cycles));
  }
  EXPECT_GT(weighted, 0u);
  std::string extra;
  EXPECT_FALSE(std::getline(is, extra)) << extra;
}

TEST(Profiler, ProfileJsonCarriesManifestAndVersion) {
  const telemetry::ProfileSnapshot snap = profiled_run(0);
  telemetry::RunManifest m;
  m.tool = "fgqos_sim";
  m.scenario = "preset=test";
  m.seed = 42;
  m.profile_tag_table_version = telemetry::kProfilerTagTableVersion;
  const std::string path = "/tmp/fgqos_test_profile.json";
  snap.save_json(path, &m);

  const telemetry::ProfileData d = telemetry::ProfileData::load(path);
  EXPECT_TRUE(d.has_manifest);
  EXPECT_EQ(d.manifest.tool, "fgqos_sim");
  EXPECT_EQ(d.manifest.profile_tag_table_version,
            telemetry::kProfilerTagTableVersion);
  EXPECT_EQ(d.tag_table_version, telemetry::kProfilerTagTableVersion);
  EXPECT_EQ(d.total_cycles, snap.total_cycles);
  EXPECT_EQ(d.tags.size(), snap.tags.size());
}

telemetry::ProfileData synthetic_profile(int version, std::uint64_t hot,
                                         std::uint64_t cold) {
  telemetry::ProfileData d;
  d.tag_table_version = version;
  d.total_cycles = hot + cold;
  d.coverage = 1.0;
  d.tags["qos.regulator"] = {10, hot};
  d.tags["axi.deliver"] = {10, cold};
  return d;
}

TEST(Profiler, CompareProfilesFlagsShareRegressions) {
  // Baseline: regulator at 10%; fresh: regulator at 50% — a 40pp jump.
  const telemetry::ProfileData base = synthetic_profile(1, 10, 90);
  const telemetry::ProfileData fresh = synthetic_profile(1, 50, 50);
  const telemetry::ProfileComparison c =
      telemetry::compare_profiles(base, fresh, 2.0, false);
  EXPECT_FALSE(c.pass());
  ASSERT_FALSE(c.regressions.empty());
  EXPECT_NE(c.regressions.front().find("qos.regulator"), std::string::npos);
  // The biggest mover sorts first.
  ASSERT_FALSE(c.deltas.empty());
  EXPECT_EQ(c.deltas.front().name, "qos.regulator");

  // Within tolerance passes.
  EXPECT_TRUE(telemetry::compare_profiles(base, base, 2.0, false).pass());
}

TEST(Profiler, CompareProfilesGatesOnTagTableVersion) {
  const telemetry::ProfileData v1 = synthetic_profile(1, 10, 90);
  const telemetry::ProfileData v2 = synthetic_profile(2, 10, 90);
  EXPECT_THROW((void)telemetry::compare_profiles(v1, v2, 2.0, false),
               ConfigError);
  const telemetry::ProfileComparison forced =
      telemetry::compare_profiles(v1, v2, 2.0, true);
  EXPECT_FALSE(forced.manifest_note.empty());
  EXPECT_TRUE(forced.pass());
}

TEST(Profiler, RunnerExportsQueueDepthAndJobWall) {
  exec::ScenarioRunner runner({2, 1});
  runner.map(6, [](const exec::JobContext& ctx) { return ctx.index; });
  auto& m = runner.metrics();
  // One wall-clock sample per job.
  EXPECT_EQ(m.histogram("exec.job_us").count(), 6u);
  // Every job was claimed by the end of the batch.
  EXPECT_EQ(m.gauge("exec.queue_depth").value(), 0.0);
}

}  // namespace
}  // namespace fgqos

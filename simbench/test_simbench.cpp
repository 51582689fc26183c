/// \file test_simbench.cpp
/// \brief Tests of the benchmark's own logic: the tag -> layer map, the
///        output digest and the exactness of the work counts.
#include <gtest/gtest.h>

#include <algorithm>

#include "measure.hpp"
#include "scenario.hpp"

using namespace simbench;

namespace {

Scenario run_once(Workload w, std::uint64_t seed, bool profile,
                  bool observers) {
  ScenarioOptions opts;
  opts.seed = seed;
  opts.profile = profile;
  opts.observers = observers;
  Scenario s = build(w, opts);
  run(s);
  return s;
}

class EveryWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(EveryWorkload, LayerMapCoversProfiledCycles) {
  Scenario s = run_once(GetParam(), 1, true, default_observers(GetParam()));
  const LayerCycles lc = group_by_layer(s.chip->profiler()->snapshot(), s);
  EXPECT_GT(lc.total, 0u);
  EXPECT_GE(lc.coverage(), 0.95);
}

TEST_P(EveryWorkload, WorkCountsRepeatExactlyForOneSeed) {
  Scenario a = run_once(GetParam(), 7, false, default_observers(GetParam()));
  Scenario b = run_once(GetParam(), 7, false, default_observers(GetParam()));
  EXPECT_TRUE(work_counts(a) == work_counts(b));
  EXPECT_EQ(digest(output_stats(*a.chip)), digest(output_stats(*b.chip)));
  EXPECT_TRUE(check_invariants(a).empty());
}

TEST_P(EveryWorkload, ProfilingAndObserversLeaveOutputsAlone) {
  const bool obs = default_observers(GetParam());
  Scenario plain = run_once(GetParam(), 3, false, obs);
  Scenario traced = run_once(GetParam(), 3, true, obs);
  Scenario toggled = run_once(GetParam(), 3, false, !obs);
  const Stats ref = output_stats(*plain.chip);
  EXPECT_EQ(digest(ref), digest(output_stats(*traced.chip)));
  EXPECT_EQ(digest(ref, true), digest(output_stats(*toggled.chip), true));
  EXPECT_TRUE(check_invariants(toggled).empty());
}

INSTANTIATE_TEST_SUITE_P(Simbench, EveryWorkload,
                         ::testing::ValuesIn(kAllWorkloads),
                         [](const auto& param_info) {
                           return std::string(workload_name(param_info.param));
                         });

TEST(Digest, IgnoresSimKeysButCatchesModelChanges) {
  Scenario s = run_once(Workload::kExp1Hw, 1, false, false);
  sim::StatsRegistry reg;
  s.chip->collect_stats(reg);
  ASSERT_TRUE(reg.contains("sim.ticks"));
  ASSERT_TRUE(reg.contains("dram.reads"));
  const Stats out = output_stats(*s.chip);
  EXPECT_EQ(out.count("sim.ticks"), 0u);
  const std::uint64_t base = digest(out);

  // A change that only skips dead cycles moves sim.* alone.
  Stats fewer_ticks = out;
  fewer_ticks.erase("sim.ticks");
  EXPECT_EQ(digest(fewer_ticks), base);
  Stats changed = out;
  changed["dram.reads"] += 1;
  EXPECT_NE(digest(changed), base);
}

TEST(Digest, ObserverKeysOnlyMatterInTheFullDigest) {
  Stats s{{"dram.reads", 10}, {"attr.cpu.stall_ps", 5}};
  Stats t = s;
  t["attr.cpu.stall_ps"] = 6;
  EXPECT_NE(digest(s), digest(t));
  EXPECT_EQ(digest(s, true), digest(t, true));
}

TEST(LayerMap, UsesTheComponentNamesTheScenarioCreated) {
  Scenario s = build(Workload::kServingDefended, ScenarioOptions{});
  EXPECT_EQ(layer_of_tag("tick.dram", s), Layer::kDram);
  EXPECT_EQ(layer_of_tag("tick.xbar", s), Layer::kAxi);
  EXPECT_EQ(layer_of_tag("tick.apu", s), Layer::kCpu);
  EXPECT_EQ(layer_of_tag("tick.lc", s), Layer::kWorkload);
  EXPECT_EQ(layer_of_tag("tick.bulk1", s), Layer::kWorkload);
  EXPECT_EQ(layer_of_tag("axi.deliver", s), Layer::kAxi);
  EXPECT_EQ(layer_of_tag("qos.regulator", s), Layer::kQos);
  EXPECT_EQ(layer_of_tag("kernel.overhead", s), Layer::kSim);
  EXPECT_EQ(layer_of_tag("tick.critical", s), std::nullopt);
  EXPECT_EQ(layer_of_tag("mystery", s), std::nullopt);
}

TEST(Seeds, DifferentSeedsGiveDifferentOutputs) {
  Scenario a = run_once(Workload::kServingDefended, 1, false, true);
  Scenario b = run_once(Workload::kServingDefended, 2, false, true);
  EXPECT_NE(digest(output_stats(*a.chip)), digest(output_stats(*b.chip)));
}

TEST(Yardstick, TakesMillisecondsAndIgnoresWhatTheModelLeftInCache) {
  const double quiet = host_slowdown();
  EXPECT_GT(quiet, 0.1);
  EXPECT_LT(quiet, 10.0);
  // A repetition evicts the yardstick's rings from the caches; the untimed
  // passes must keep that from slowing the timed parts by much.
  Scenario s = run_once(Workload::kServingDefended, 1, false, true);
  const double after_model = host_slowdown();
  const double warm = std::min({host_slowdown(), host_slowdown(), host_slowdown()});
  EXPECT_LT(after_model, 1.5 * warm);
}

TEST(Spans, NestAndShareTheRunId) {
  SpanRecorder rec;
  rec.set_run(4);
  Scenario s = build(Workload::kExp1Hw, ScenarioOptions{}, &rec);
  const auto& spans = rec.spans();
  ASSERT_GE(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "setup");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "soc.construct");
  EXPECT_EQ(spans[1].parent, 0);
  for (const Span& sp : spans) {
    EXPECT_EQ(sp.run_id, 4u);
    EXPECT_LE(sp.start_s, sp.end_s);
  }
  EXPECT_GT(rec.total_s(4, "setup"), rec.total_s(4, "soc.construct"));
}

}  // namespace

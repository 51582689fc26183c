// Unit tests for traffic generators, CPU kernels and the benchmark suite
// registry.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "soc/soc.hpp"
#include "util/config_error.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/suite.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos::wl {
namespace {

soc::SocConfig plain_soc() {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  return cfg;
}

/// Records the address of every line granted on a port.
struct GrantAddrs final : axi::TxnObserver {
  std::vector<axi::Addr> addrs;
  void on_issue(const axi::Transaction&, sim::TimePs) override {}
  void on_grant(const axi::LineRequest& line, sim::TimePs) override {
    addrs.push_back(line.addr);
  }
  void on_complete(const axi::Transaction&, sim::TimePs) override {}
};

TEST(TrafficGen, SaturatesPortBandwidth) {
  soc::Soc chip(plain_soc());
  TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  chip.run_for(sim::kPsPerMs);
  const double bps = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value(), chip.now());
  // One HP port: 4.8 GB/s ceiling; a saturating generator should get close.
  EXPECT_GT(bps, 4.2e9);
  EXPECT_LT(bps, 4.9e9);
}

TEST(TrafficGen, PacedModeHitsTargetRate) {
  soc::Soc chip(plain_soc());
  TrafficGenConfig tg;
  tg.target_bps = 1e9;
  chip.add_traffic_gen(0, tg);
  chip.run_for(2 * sim::kPsPerMs);
  const double bps = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value(), chip.now());
  EXPECT_NEAR(bps, 1e9, 0.1e9);
}

TEST(TrafficGen, MaxBytesStopsGeneration) {
  soc::Soc chip(plain_soc());
  TrafficGenConfig tg;
  tg.max_bytes = 64 * 1024;
  TrafficGen& gen = chip.add_traffic_gen(0, tg);
  chip.run_for(sim::kPsPerMs);
  EXPECT_EQ(gen.stats().issued_bytes, 64u * 1024u);
  EXPECT_TRUE(gen.drained());
  EXPECT_EQ(gen.stats().completed_bytes, 64u * 1024u);
}

TEST(TrafficGen, PhasedActivityAlternates) {
  soc::Soc chip(plain_soc());
  TrafficGenConfig tg;
  tg.active_ps = 100 * sim::kPsPerUs;
  tg.idle_ps = 100 * sim::kPsPerUs;
  TrafficGen& gen = chip.add_traffic_gen(0, tg);
  chip.run_for(100 * sim::kPsPerUs);
  const std::uint64_t after_active = gen.stats().issued_bytes;
  EXPECT_GT(after_active, 0u);
  chip.run_for(95 * sim::kPsPerUs);  // deep inside the idle phase
  EXPECT_EQ(gen.stats().issued_bytes, after_active);
  chip.run_for(105 * sim::kPsPerUs);  // back in the active phase
  EXPECT_GT(gen.stats().issued_bytes, after_active);
}

TEST(TrafficGen, RandomPatternCoversFootprint) {
  soc::Soc chip(plain_soc());
  TrafficGenConfig tg;
  tg.pattern = Pattern::kRandomRead;
  tg.footprint_bytes = 1 << 20;
  chip.add_traffic_gen(0, tg);
  GrantAddrs rec;
  chip.accel_port(0).add_observer(rec);
  chip.run_for(200 * sim::kPsPerUs);
  const std::set<axi::Addr> distinct(rec.addrs.begin(), rec.addrs.end());
  EXPECT_GT(distinct.size(), 100u);
}

TEST(TrafficGen, CopyPatternMixesReadsAndWrites) {
  soc::Soc chip(plain_soc());
  TrafficGenConfig tg;
  tg.pattern = Pattern::kCopy;
  chip.add_traffic_gen(0, tg);
  chip.run_for(sim::kPsPerMs);
  const auto& st = chip.accel_port(0).stats();
  EXPECT_GT(st.read_bytes.value(), 0u);
  EXPECT_GT(st.write_bytes.value(), 0u);
  const double ratio = static_cast<double>(st.read_bytes.value()) /
                       static_cast<double>(st.write_bytes.value());
  EXPECT_NEAR(ratio, 1.0, 0.2);
}

TEST(TrafficGen, RejectsBadConfig) {
  soc::Soc chip(plain_soc());
  TrafficGenConfig tg;
  tg.burst_bytes = 0;
  EXPECT_THROW(chip.add_traffic_gen(0, tg), ConfigError);
  tg = TrafficGenConfig{};
  tg.active_ps = 100;  // idle_ps unset
  EXPECT_THROW(chip.add_traffic_gen(0, tg), ConfigError);
}

TEST(Kernels, PointerChaseEmitsBlockingLoadsWithinFootprint) {
  PointerChaseConfig pc;
  pc.footprint_bytes = 1 << 16;
  pc.accesses_per_iteration = 10;
  auto k = make_pointer_chase(pc);
  sim::Xoshiro256 rng(1);
  int end_markers = 0;
  for (int i = 0; i < 30; ++i) {
    const auto s = k->next(rng);
    ASSERT_TRUE(s.op.has_value());
    EXPECT_TRUE(s.op->blocking);
    EXPECT_FALSE(s.op->is_write);
    EXPECT_GE(s.op->addr, pc.base);
    EXPECT_LT(s.op->addr, pc.base + pc.footprint_bytes);
    end_markers += s.end_of_iteration ? 1 : 0;
  }
  EXPECT_EQ(end_markers, 3);
}

TEST(Kernels, StreamCopyAlternates) {
  StreamConfig sc;
  sc.mode = StreamMode::kCopy;
  sc.lines_per_iteration = 8;
  auto k = make_stream(sc);
  sim::Xoshiro256 rng(1);
  int writes = 0;
  for (int i = 0; i < 8; ++i) {
    const auto s = k->next(rng);
    ASSERT_TRUE(s.op.has_value());
    writes += s.op->is_write ? 1 : 0;
  }
  EXPECT_EQ(writes, 4);
}

TEST(Kernels, PhasedAlternatesMemoryAndCompute) {
  PhasedConfig pc;
  pc.lines_per_phase = 4;
  pc.phases_per_iteration = 2;
  pc.compute_cycles_per_phase = 111;
  auto k = make_phased(pc);
  sim::Xoshiro256 rng(1);
  int mem = 0, compute = 0;
  for (int i = 0; i < 10; ++i) {
    const auto s = k->next(rng);
    if (s.op.has_value()) {
      ++mem;
    }
    if (s.compute_cycles == 111) {
      ++compute;
    }
  }
  EXPECT_EQ(mem, 8);
  EXPECT_EQ(compute, 2);
}

TEST(Kernels, RandomRmwPairsLoadAndStoreToSameLine) {
  RandomRmwConfig rc;
  auto k = make_random_rmw(rc);
  sim::Xoshiro256 rng(7);
  const auto load = k->next(rng);
  const auto store = k->next(rng);
  ASSERT_TRUE(load.op && store.op);
  EXPECT_FALSE(load.op->is_write);
  EXPECT_TRUE(store.op->is_write);
  EXPECT_EQ(load.op->addr, store.op->addr);
}

TEST(Suite, EntriesAreWellFormed) {
  const auto& suite = benchmark_suite();
  EXPECT_GE(suite.size(), 6u);
  std::set<std::string> names;
  for (const auto& e : suite) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_FALSE(e.description.empty());
    EXPECT_GT(e.iterations, 0u);
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
    auto k = e.make();
    ASSERT_NE(k, nullptr);
    sim::Xoshiro256 rng(1);
    (void)k->next(rng);  // generates without throwing
  }
}

TEST(Suite, LookupByName) {
  EXPECT_EQ(suite_entry("memcpy").name, "memcpy");
  EXPECT_THROW(suite_entry("nope"), ConfigError);
}

}  // namespace
}  // namespace fgqos::wl

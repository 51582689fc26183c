// Cross-module integration tests on the assembled platform: interference,
// regulation end to end, register programming, QoS manager, determinism
// and byte-conservation invariants.
#include <gtest/gtest.h>

#include "qos/qos_manager.hpp"
#include "qos/regfile.hpp"
#include "soc/soc.hpp"
#include "util/config_error.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/traffic_gen.hpp"

// GCC 12 emits a spurious -Wrestrict on the inlined std::string assignment
// in the lambdas below (PR105329 family); there is no real overlap.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace fgqos::soc {
namespace {

TEST(SocIntegration, ConfigValidationCatchesMismatches) {
  SocConfig cfg;
  cfg.accel_ports = 0;
  EXPECT_THROW(Soc{cfg}, ConfigError);
  cfg = SocConfig{};
  cfg.cluster.l2.line_bytes = 128;
  EXPECT_THROW(Soc{cfg}, ConfigError);
}

TEST(SocIntegration, InterferenceSlowsCriticalTask) {
  auto run = [](std::size_t n_gens) {
    SocConfig cfg;
    Soc chip(cfg);
    wl::PointerChaseConfig pc;
    pc.accesses_per_iteration = 512;
    cpu::CoreConfig cc;
    cc.max_iterations = 5;
    chip.add_core(cc, wl::make_pointer_chase(pc));
    for (std::size_t i = 0; i < n_gens; ++i) {
      wl::TrafficGenConfig tg;
      tg.name = "g" + std::to_string(i);
      tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
      tg.seed = 7 + i;
      chip.add_traffic_gen(i, tg);
    }
    EXPECT_TRUE(chip.run_until_cores_finished(100 * sim::kPsPerMs));
    return chip.cluster().core(0).stats().iteration_ps.mean();
  };
  const double solo = run(0);
  const double loaded = run(4);
  EXPECT_GT(loaded, solo * 1.4);  // visible interference
}

TEST(SocIntegration, RegulationRestoresCriticalLatency) {
  auto run = [](bool regulate) {
    SocConfig cfg;
    Soc chip(cfg);
    wl::PointerChaseConfig pc;
    pc.accesses_per_iteration = 512;
    cpu::CoreConfig cc;
    cc.max_iterations = 5;
    chip.add_core(cc, wl::make_pointer_chase(pc));
    for (std::size_t i = 0; i < 4; ++i) {
      wl::TrafficGenConfig tg;
      tg.name = "g" + std::to_string(i);
      tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
      tg.seed = 7 + i;
      chip.add_traffic_gen(i, tg);
      if (regulate) {
        chip.qos_block(1 + i).regulator->set_rate(200e6);
        chip.qos_block(1 + i).regulator->set_enabled(true);
      }
    }
    EXPECT_TRUE(chip.run_until_cores_finished(100 * sim::kPsPerMs));
    return chip.cluster().core(0).stats().iteration_ps.mean();
  };
  const double unregulated = run(false);
  const double regulated = run(true);
  EXPECT_LT(regulated, unregulated * 0.8);
}

TEST(SocIntegration, RegulatedBandwidthMatchesBudget) {
  SocConfig cfg;
  Soc chip(cfg);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  chip.qos_block(1).regulator->set_rate(500e6);
  chip.qos_block(1).regulator->set_enabled(true);
  chip.run_for(5 * sim::kPsPerMs);
  const double measured = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value(), chip.now());
  EXPECT_NEAR(measured, 500e6, 25e6);  // within 5%
}

TEST(SocIntegration, MonitorAgreesWithPortCounters) {
  SocConfig cfg;
  Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.max_bytes = 1 << 20;
  chip.add_traffic_gen(0, tg);
  chip.run_for(5 * sim::kPsPerMs);
  EXPECT_EQ(chip.qos_block(1).monitor->total_bytes(),
            chip.accel_port(0).stats().bytes_granted.value());
}

TEST(SocIntegration, BytesConservedEndToEnd) {
  SocConfig cfg;
  Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.max_bytes = 2 << 20;
  wl::TrafficGen& gen = chip.add_traffic_gen(0, tg);
  chip.run_for(10 * sim::kPsPerMs);
  ASSERT_TRUE(gen.drained());
  // Issued == granted at the port == serviced by DRAM for this master.
  EXPECT_EQ(gen.stats().issued_bytes,
            chip.accel_port(0).stats().bytes_granted.value());
  EXPECT_EQ(chip.dram().master_bytes(chip.accel_port(0).id()),
            gen.stats().issued_bytes);
}

TEST(SocIntegration, DeterministicAcrossRuns) {
  auto run = [] {
    SocConfig cfg;
    Soc chip(cfg);
    wl::PointerChaseConfig pc;
    pc.accesses_per_iteration = 256;
    cpu::CoreConfig cc;
    cc.max_iterations = 3;
    cc.rng_seed = 42;
    chip.add_core(cc, wl::make_pointer_chase(pc));
    wl::TrafficGenConfig tg;
    tg.seed = 5;
    chip.add_traffic_gen(0, tg);
    chip.run_until_cores_finished(50 * sim::kPsPerMs);
    sim::StatsRegistry r;
    chip.collect_stats(r);
    return r.all();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(SocIntegration, CollectStatsExposesKeyMetrics) {
  SocConfig cfg;
  Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "c0";
  cc.max_iterations = 1;
  wl::ComputeBoundConfig cb;
  chip.add_core(cc, wl::make_compute_bound(cb));
  chip.run_until_cores_finished(50 * sim::kPsPerMs);
  sim::StatsRegistry r;
  chip.collect_stats(r);
  EXPECT_TRUE(r.contains("dram.payload_bytes"));
  EXPECT_TRUE(r.contains("port.cpu.read_p99_ps"));
  EXPECT_TRUE(r.contains("core.c0.iterations"));
  EXPECT_DOUBLE_EQ(r.get("core.c0.iterations"), 1.0);
}

// The memory path publishes its busy ticks next to its ticks: a DRAM
// channel's count every command it issued, the crossbar's every tick that
// granted a line (up to issue_width lines each).
TEST(SocIntegration, PublishesBusyTicks) {
  SocConfig cfg;
  Soc chip(cfg);
  wl::TrafficGenConfig rd;
  rd.pattern = wl::Pattern::kRandomRead;
  chip.add_traffic_gen(0, rd);
  wl::TrafficGenConfig wr;
  wr.pattern = wl::Pattern::kSeqWrite;
  chip.add_traffic_gen(1, wr);
  chip.run_for(sim::kPsPerMs);
  sim::StatsRegistry r;
  chip.collect_stats(r);

  const dram::ControllerStats& ds = chip.dram().stats();
  const std::uint64_t commands =
      ds.reads_serviced.value() + ds.writes_serviced.value() +
      ds.activations.value() + ds.conflict_precharges.value() +
      ds.refreshes.value();
  EXPECT_GT(ds.writes_serviced.value(), 0u);
  EXPECT_GT(ds.refreshes.value(), 0u);
  EXPECT_EQ(r.get("sim.clocked.dram.ch0.busy_ticks"),
            static_cast<double>(commands));
  EXPECT_LE(r.get("sim.clocked.dram.ch0.busy_ticks"),
            r.get("sim.clocked.dram.ch0.ticks"));

  const std::string xbar = "sim.clocked." + chip.xbar().name() + ".";
  const double lines = static_cast<double>(chip.xbar().total_bytes_granted()) /
                       static_cast<double>(cfg.cpu_port.line_bytes);
  const double busy = r.get(xbar + "busy_ticks");
  EXPECT_GT(busy, 0.0);
  EXPECT_LE(busy, lines);
  EXPECT_GE(busy * static_cast<double>(cfg.xbar.issue_width), lines);
  EXPECT_LE(busy, r.get(xbar + "ticks"));
}

TEST(QosManager, AdmissionControlRejectsOversubscription) {
  SocConfig cfg;
  Soc chip(cfg);
  qos::QosManagerConfig mc;
  mc.capacity_bps = 10e9;
  mc.max_reservable_frac = 0.8;
  qos::QosManager mgr(chip.sim(), mc);
  mgr.add_port("hp0", 1, chip.regfile(1));
  mgr.add_port("hp1", 2, chip.regfile(2));
  EXPECT_TRUE(mgr.reserve(1, 5e9));
  EXPECT_FALSE(mgr.reserve(2, 4e9));  // 9 > 8 GB/s reservable
  EXPECT_TRUE(mgr.reserve(2, 3e9));
  EXPECT_NEAR(mgr.reserved_total_bps(), 8e9, 1.0);
  EXPECT_NEAR(mgr.available_bps(), 0.0, 1.0);
  mgr.release(1);
  EXPECT_NEAR(mgr.available_bps(), 5e9, 1.0);
}

TEST(QosManager, ReserveProgramsHardwareViaRegisters) {
  SocConfig cfg;
  Soc chip(cfg);
  qos::QosManager mgr(chip.sim(), qos::QosManagerConfig{});
  mgr.add_port("hp0", 1, chip.regfile(1));
  ASSERT_TRUE(mgr.reserve(1, 800e6));
  const qos::Regulator& reg = *chip.qos_block(1).regulator;
  EXPECT_TRUE(reg.enabled());
  // 800 MB/s at the default 1 us window = 800 bytes.
  EXPECT_EQ(reg.config().budget_bytes, 800u);
}

TEST(QosManager, ReclamationRaisesBestEffortWhenReservedIdle) {
  SocConfig cfg;
  Soc chip(cfg);
  qos::QosManagerConfig mc;
  mc.capacity_bps = 10e9;
  mc.reclaim_period_ps = 50 * sim::kPsPerUs;
  qos::QosManager mgr(chip.sim(), mc);
  // Port 1 reserved but IDLE; port 2 best-effort and hungry.
  mgr.add_port("hp0", 1, chip.regfile(1));
  mgr.add_port("hp1", 2, chip.regfile(2));
  ASSERT_TRUE(mgr.reserve(1, 4e9));
  wl::TrafficGenConfig tg;
  tg.name = "hungry";
  chip.add_traffic_gen(1, tg);  // accel index 1 -> master 2
  mgr.start_reclamation();
  chip.run_for(2 * sim::kPsPerMs);
  EXPECT_GT(mgr.reclaim_iterations(), 10u);
  // The best-effort port should have been granted far more than the floor.
  const double measured = sim::bytes_per_second(
      chip.accel_port(1).stats().bytes_granted.value(), chip.now());
  EXPECT_GT(measured, 1e9);
  mgr.stop_reclamation();
}

TEST(QosManager, RejectsDuplicateAndUnknownMasters) {
  SocConfig cfg;
  Soc chip(cfg);
  qos::QosManager mgr(chip.sim(), qos::QosManagerConfig{});
  mgr.add_port("hp0", 1, chip.regfile(1));
  EXPECT_THROW(mgr.add_port("again", 1, chip.regfile(1)), ConfigError);
  EXPECT_THROW((void)mgr.reserve(9, 1e9), ConfigError);
  EXPECT_THROW(mgr.release(9), ConfigError);
}

}  // namespace
}  // namespace fgqos::soc

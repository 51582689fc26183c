// Tests for multi-channel DRAM routing.
#include <gtest/gtest.h>

#include "fgqos.hpp"
#include "util/config_error.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// ChannelRouter (unit)
// --------------------------------------------------------------------------

struct CountingSlave final : axi::SlaveIf {
  int accepted = 0;
  bool full = false;
  [[nodiscard]] bool can_accept(const axi::LineRequest&,
                                sim::TimePs) const override {
    return !full;
  }
  void accept(axi::LineRequest, sim::TimePs) override { ++accepted; }
};

TEST(ChannelRouter, RoutesByStride) {
  CountingSlave a, b;
  axi::ChannelRouter router({&a, &b}, 4096);
  EXPECT_EQ(router.route(0), 0u);
  EXPECT_EQ(router.route(4095), 0u);
  EXPECT_EQ(router.route(4096), 1u);
  EXPECT_EQ(router.route(8192), 0u);
  axi::Transaction txn;
  axi::LineRequest l;
  l.txn = &txn;
  l.addr = 4096;
  l.bytes = 64;
  EXPECT_TRUE(router.can_accept(l, 0));
  router.accept(l, 0);
  EXPECT_EQ(b.accepted, 1);
  EXPECT_EQ(a.accepted, 0);
  EXPECT_EQ(router.routed(1), 1u);
  // Backpressure is per channel.
  b.full = true;
  EXPECT_FALSE(router.can_accept(l, 0));
  l.addr = 0;
  EXPECT_TRUE(router.can_accept(l, 0));
}

TEST(ChannelRouter, RejectsBadConfig) {
  CountingSlave a;
  EXPECT_THROW(axi::ChannelRouter({}, 4096), ConfigError);
  EXPECT_THROW(axi::ChannelRouter({&a}, 4095), ConfigError);
  EXPECT_THROW(axi::ChannelRouter({&a, nullptr}, 4096), ConfigError);
}

// --------------------------------------------------------------------------
// Multi-channel platform
// --------------------------------------------------------------------------

TEST(MultiChannel, DoublesSequentialBandwidth) {
  auto run = [](std::size_t channels) {
    soc::SocConfig cfg;
    cfg.qos_blocks = false;
    cfg.dram_channels = channels;
    // Uncap the ports so the channels are the bottleneck.
    cfg.accel_port.port_bandwidth_bps = 40e9;
    cfg.accel_port.max_outstanding_reads = 32;
    cfg.accel_port.request_queue_depth = 32;
    soc::Soc chip(cfg);
    for (std::size_t i = 0; i < 4; ++i) {
      wl::TrafficGenConfig tg;
      tg.name = "g";
      tg.name += std::to_string(i);
      tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
      tg.seed = 3 + i;
      tg.max_outstanding = 16;
      chip.add_traffic_gen(i, tg);
    }
    chip.run_for(3 * sim::kPsPerMs);
    return chip.dram_bandwidth_bps();
  };
  const double one = run(1);
  const double two = run(2);
  EXPECT_GT(two, one * 1.5);
}

TEST(MultiChannel, BytesConservedAcrossChannels) {
  soc::SocConfig cfg;
  cfg.dram_channels = 2;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.max_bytes = 1 << 20;
  wl::TrafficGen& gen = chip.add_traffic_gen(0, tg);
  chip.run_for(10 * sim::kPsPerMs);
  ASSERT_TRUE(gen.drained());
  const std::uint64_t ch0 = chip.dram(0).stats().payload_bytes.value();
  const std::uint64_t ch1 = chip.dram(1).stats().payload_bytes.value();
  EXPECT_EQ(ch0 + ch1, 1u << 20);
  // Sequential footprint spreads roughly evenly at 4 KiB stride.
  EXPECT_NEAR(static_cast<double>(ch0), static_cast<double>(ch1),
              static_cast<double>(ch0 + ch1) * 0.1);
}

TEST(MultiChannel, RegulationStillExact) {
  soc::SocConfig cfg;
  cfg.dram_channels = 2;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  chip.qos_block(1).regulator->set_rate(600e6);
  chip.qos_block(1).regulator->set_enabled(true);
  chip.run_for(5 * sim::kPsPerMs);
  const double bps = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value(), chip.now());
  EXPECT_NEAR(bps, 600e6, 30e6);
}

}  // namespace
}  // namespace fgqos

// Unit tests for the AXI layer: timed FIFO, arbiters, ports and the
// interconnect against a scripted slave, including the crossbar's sleep
// through cycles in which nothing can be granted.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "axi/arbiter.hpp"
#include "axi/interconnect.hpp"
#include "axi/timed_fifo.hpp"
#include "dram/controller.hpp"
#include "forced_poll.hpp"
#include "util/config_error.hpp"

namespace fgqos::axi {
namespace {

// --------------------------------------------------------------------------
// TimedFifo
// --------------------------------------------------------------------------

TEST(TimedFifo, RespectsLatency) {
  TimedFifo<int> f(4, 100);
  f.push(7, 50);
  EXPECT_FALSE(f.can_pop(149));
  EXPECT_TRUE(f.can_pop(150));
  EXPECT_EQ(f.head_ready_at(), 150u);
  EXPECT_EQ(f.pop(150), 7);
  EXPECT_TRUE(f.empty());
}

TEST(TimedFifo, CapacityBackpressure) {
  TimedFifo<int> f(2, 10);
  f.push(1, 0);
  f.push(2, 0);
  EXPECT_TRUE(f.full());
}

TEST(TimedFifo, FifoOrder) {
  TimedFifo<int> f(4, 1);
  f.push(1, 0);
  f.push(2, 0);
  f.push(3, 5);
  EXPECT_EQ(f.pop(100), 1);
  EXPECT_EQ(f.pop(100), 2);
  EXPECT_EQ(f.pop(100), 3);
}

// --------------------------------------------------------------------------
// Arbiters
// --------------------------------------------------------------------------

std::vector<int> run_picks(Arbiter& a, std::vector<bool> eligible, int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(a.pick(eligible, 0));
  }
  return out;
}

TEST(RoundRobinArbiter, RotatesFairly) {
  RoundRobinArbiter a;
  EXPECT_EQ(run_picks(a, {true, true, true}, 6),
            (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobinArbiter, SkipsIneligible) {
  RoundRobinArbiter a;
  EXPECT_EQ(run_picks(a, {false, true, false}, 3),
            (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(a.pick({false, false, false}, 0), -1);
}

TEST(FixedPriorityArbiter, HighestWins) {
  FixedPriorityArbiter a({1, 5, 3});
  EXPECT_EQ(a.pick({true, true, true}, 0), 1);
  EXPECT_EQ(a.pick({true, false, true}, 0), 2);
  EXPECT_EQ(a.pick({true, false, false}, 0), 0);
}

TEST(FixedPriorityArbiter, EqualPrioritySharesRoundRobin) {
  FixedPriorityArbiter a({2, 2, 1});
  const auto picks = run_picks(a, {true, true, true}, 4);
  // Only masters 0 and 1 are picked, alternating.
  EXPECT_EQ(picks, (std::vector<int>{0, 1, 0, 1}));
}

// --------------------------------------------------------------------------
// Interconnect against a scripted slave
// --------------------------------------------------------------------------

/// Slave that services every line after a fixed delay and reports each
/// freed slot, so the crossbar sleeps through its refusals.
class FixedLatencySlave final : public SlaveIf {
 public:
  FixedLatencySlave(sim::Simulator& sim, ResponseSink& sink,
                    sim::TimePs latency, std::size_t capacity)
      : sim_(sim), sink_(&sink), latency_(latency), capacity_(capacity) {}

  std::size_t accepted = 0;

  [[nodiscard]] bool can_accept(const LineRequest&,
                                sim::TimePs) const override {
    return in_flight_ < capacity_;
  }
  void accept(LineRequest line, sim::TimePs now) override {
    ++accepted;
    ++in_flight_;
    sim_.schedule_at(now + latency_, [this, line]() {
      --in_flight_;
      sink_->space_freed();
      sink_->line_done(line, sim_.now());
    });
  }

 private:
  sim::Simulator& sim_;
  ResponseSink* sink_;
  sim::TimePs latency_;
  std::size_t capacity_;
  std::size_t in_flight_ = 0;
};

struct XbarFixture {
  sim::Simulator sim;
  sim::ClockDomain clk{"x", 1000};  // 1 GHz
  Interconnect xbar{sim, clk, InterconnectConfig{"xbar", 1}};
};

TEST(Interconnect, SingleTransactionCompletes) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.request_latency_ps = 1000;
  pc.response_latency_ps = 1000;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 5000, 64);
  f.xbar.set_slave(slave);

  std::vector<Transaction> done;
  port.set_completion_handler(
      [&](const Transaction& t) { done.push_back(t); });
  ASSERT_TRUE(port.issue(Dir::kRead, 0x1000, 256));
  f.sim.run_for(1'000'000);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].bytes, 256u);
  EXPECT_EQ(done[0].lines_total, 4u);
  EXPECT_EQ(slave.accepted, 4u);
  // Latency >= request path + slave latency + response path.
  EXPECT_GE(done[0].latency(), 7000u);
}

TEST(Interconnect, UnalignedBurstSplitsCorrectly) {
  XbarFixture f;
  MasterPort& port = f.xbar.add_master(MasterPortConfig{});
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  int done = 0;
  port.set_completion_handler([&](const Transaction& t) {
    ++done;
    // [0x1030, 0x1090) spans lines 0x1000, 0x1040, 0x1080 -> 3 lines.
    EXPECT_EQ(t.lines_total, 3u);
  });
  ASSERT_TRUE(port.issue(Dir::kWrite, 0x1030, 0x60));
  f.sim.run_for(1'000'000);
  EXPECT_EQ(done, 1);
}

TEST(Interconnect, OutstandingLimitEnforced) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.max_outstanding_reads = 2;
  pc.request_queue_depth = 8;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 1'000'000, 64);  // slow slave
  f.xbar.set_slave(slave);
  port.set_completion_handler([](const Transaction&) {});
  EXPECT_TRUE(port.issue(Dir::kRead, 0x0, 64));
  EXPECT_TRUE(port.issue(Dir::kRead, 0x40, 64));
  EXPECT_FALSE(port.issue(Dir::kRead, 0x80, 64));  // limit hit
  EXPECT_TRUE(port.issue(Dir::kWrite, 0xC0, 64));  // writes independent
  EXPECT_EQ(port.stats().issue_rejected.value(), 1u);
}

TEST(Interconnect, RoundRobinSharesBandwidthEvenly) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.port_bandwidth_bps = 1e12;  // effectively unlimited
  MasterPort& a = f.xbar.add_master(pc);
  MasterPort& b = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 2000, 1);  // capacity 1 = bottleneck
  f.xbar.set_slave(slave);
  a.set_completion_handler([&](const Transaction&) {
    a.issue(Dir::kRead, 0x0, 64);
  });
  b.set_completion_handler([&](const Transaction&) {
    b.issue(Dir::kRead, 0x1000, 64);
  });
  a.issue(Dir::kRead, 0x0, 64);
  b.issue(Dir::kRead, 0x1000, 64);
  f.sim.run_for(10'000'000);
  const double ra = static_cast<double>(a.stats().bytes_granted.value());
  const double rb = static_cast<double>(b.stats().bytes_granted.value());
  EXPECT_GT(ra, 0);
  EXPECT_NEAR(ra / rb, 1.0, 0.1);
}

/// Gate that blocks everything while blocked; set_blocked() signals.
struct ToggleGate final : TxnGate {
  bool blocked = true;
  int grants_seen = 0;
  [[nodiscard]] bool allow(const LineRequest&, sim::TimePs) const override {
    return !blocked;
  }
  void on_grant(const LineRequest&, sim::TimePs) override { ++grants_seen; }
  void set_blocked(bool b) {
    blocked = b;
    reopened();
  }
};

TEST(Interconnect, GateBlocksAndReleases) {
  XbarFixture f;
  MasterPort& port = f.xbar.add_master(MasterPortConfig{});
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  ToggleGate gate;
  port.add_gate(gate);
  int done = 0;
  port.set_completion_handler([&](const Transaction&) { ++done; });
  port.issue(Dir::kRead, 0x0, 64);
  f.sim.run_for(100'000);
  EXPECT_EQ(done, 0);  // gate shut: nothing moved
  EXPECT_EQ(gate.grants_seen, 0);
  gate.set_blocked(false);
  f.sim.run_for(100'000);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(gate.grants_seen, 1);
}

/// Observer counting events.
struct CountingObserver final : TxnObserver {
  int issues = 0, grants = 0, completes = 0;
  std::uint64_t grant_bytes = 0;
  void on_issue(const Transaction&, sim::TimePs) override { ++issues; }
  void on_grant(const LineRequest& l, sim::TimePs) override {
    ++grants;
    grant_bytes += l.bytes;
  }
  void on_complete(const Transaction&, sim::TimePs) override { ++completes; }
};

TEST(Interconnect, ObserverSeesAllEvents) {
  XbarFixture f;
  MasterPort& port = f.xbar.add_master(MasterPortConfig{});
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  CountingObserver obs;
  port.add_observer(obs);
  port.set_completion_handler([](const Transaction&) {});
  port.issue(Dir::kRead, 0x0, 256);
  port.issue(Dir::kWrite, 0x1000, 64);
  f.sim.run_for(1'000'000);
  EXPECT_EQ(obs.issues, 2);
  EXPECT_EQ(obs.grants, 5);  // 4 + 1 lines
  EXPECT_EQ(obs.completes, 2);
  EXPECT_EQ(obs.grant_bytes, 320u);
}

TEST(Interconnect, PortBandwidthLimitsThroughput) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.port_bandwidth_bps = 1e9;  // 1 GB/s port
  pc.max_outstanding_reads = 16;
  pc.request_queue_depth = 16;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 100, 64);  // fast slave
  f.xbar.set_slave(slave);
  port.set_completion_handler([&](const Transaction&) {
    port.issue(Dir::kRead, 0x0, 1024);
  });
  for (int i = 0; i < 8; ++i) {
    port.issue(Dir::kRead, 0x0, 1024);
  }
  const sim::TimePs horizon = 10 * sim::kPsPerUs;
  f.sim.run_for(horizon);
  const double bps = sim::bytes_per_second(
      port.stats().bytes_granted.value(), horizon);
  EXPECT_LT(bps, 1.1e9);
  EXPECT_GT(bps, 0.8e9);
}

// --------------------------------------------------------------------------
// Crossbar sleep: the crossbar skips cycles in which no port can be
// granted, and every skipped cycle must be one a polling crossbar would
// have wasted.
// --------------------------------------------------------------------------

/// Records the time of every grant on a port.
struct GrantTimes final : TxnObserver {
  std::vector<sim::TimePs> at;
  void on_issue(const Transaction&, sim::TimePs) override {}
  void on_grant(const LineRequest&, sim::TimePs now) override {
    at.push_back(now);
  }
  void on_complete(const Transaction&, sim::TimePs) override {}
};

TEST(InterconnectSleep, NoTicksWhileOnlyResponsesInFlight) {
  sim::Simulator sim;
  sim::ClockDomain xclk = sim::ClockDomain::from_mhz("x", 600);
  dram::ControllerConfig dc;
  sim::ClockDomain dclk{"d", dc.timing.period_ps()};
  Interconnect xbar{sim, xclk, InterconnectConfig{}};
  MasterPort& port = xbar.add_master(MasterPortConfig{});
  dram::Controller ctrl{sim, dclk, dc, xbar};
  xbar.set_slave(ctrl);
  int done = 0;
  port.set_completion_handler([&](const Transaction&) { ++done; });
  ASSERT_TRUE(port.issue(Dir::kRead, 0x1000, 64));
  while (port.stats().lines_granted.value() == 0) {
    sim.run_for(xclk.period_ps());
  }
  const std::uint64_t xbar_ticks = xbar.ticks_fired();
  const std::uint64_t dram_ticks = ctrl.ticks_fired();
  sim.run_for(sim::kPsPerUs);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(xbar.ticks_fired(), xbar_ticks);  // asleep the whole time
  EXPECT_GT(ctrl.ticks_fired(), dram_ticks);  // while DRAM served the line
}

TEST(InterconnectSleep, GateReopenFromAnEventGrantsOnTheNextEdge) {
  XbarFixture f;
  MasterPort& port = f.xbar.add_master(MasterPortConfig{});
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  ToggleGate gate;
  port.add_gate(gate);
  GrantTimes grants;
  port.add_observer(grants);
  port.set_completion_handler([](const Transaction&) {});
  port.issue(Dir::kRead, 0x0, 64);
  f.sim.schedule_at(50'500, [&gate]() { gate.set_blocked(false); });
  f.sim.run_for(40'000);
  const std::uint64_t ticks = f.xbar.ticks_fired();
  f.sim.run_for(10'000);
  // The shut gate will signal its reopen, so the crossbar sleeps...
  EXPECT_EQ(f.xbar.ticks_fired(), ticks);
  f.sim.run_for(50'000);
  // ...and the grant lands on the first edge after the flip.
  ASSERT_EQ(grants.at.size(), 1u);
  EXPECT_EQ(grants.at[0], 51'000u);
}

TEST(InterconnectSleep, InjectStallResumesAtDataFree) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.request_latency_ps = 1000;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  GrantTimes grants;
  port.add_observer(grants);
  port.set_completion_handler([](const Transaction&) {});
  port.issue(Dir::kRead, 0x0, 64);
  port.inject_stall(20'500);  // data path busy until 20.5 ns
  f.sim.run_for(100'000);
  ASSERT_EQ(grants.at.size(), 1u);
  EXPECT_EQ(grants.at[0], 21'000u);  // first edge at or after the stall
  // Edges 0 and 1 ns (head still invisible), then asleep until the stall
  // lifts: the grant tick and nothing after it.
  EXPECT_EQ(f.xbar.ticks_fired(), 3u);
}

/// Runs \p ports always-busy ports, each issuing \p txn_bytes bursts at
/// \p port_bandwidth_bps, against a one-slot slave and returns the grant
/// times of all of them plus the crossbar's tick count; with \p poll the
/// crossbar ticks every cycle.
std::pair<std::vector<sim::TimePs>, std::uint64_t> run_backpressured(
    bool poll, double port_bandwidth_bps = 1e12,
    std::uint32_t txn_bytes = 64, std::size_t ports = 2) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.port_bandwidth_bps = port_bandwidth_bps;
  FixedLatencySlave slave(f.sim, f.xbar, 30'300, 1);
  f.xbar.set_slave(slave);
  const auto poller = poll ? testing::force_poll(f.xbar, nullptr) : nullptr;
  GrantTimes grants;
  for (std::size_t i = 0; i < ports; ++i) {
    MasterPort& p = f.xbar.add_master(pc);
    const Addr addr = 0x1000 * i;
    p.add_observer(grants);
    p.set_completion_handler(
        [&p, addr, txn_bytes](const Transaction&) {
          p.issue(Dir::kRead, addr, txn_bytes);
        });
    p.issue(Dir::kRead, addr, txn_bytes);
  }
  f.sim.run_for(4'000'000);
  return {grants.at, f.xbar.ticks_fired()};
}

TEST(InterconnectSleep, SignallingSlaveRefusalSleepsUntilSpaceFreed) {
  const auto [polled, polled_ticks] = run_backpressured(true);
  const auto [slept, slept_ticks] = run_backpressured(false);
  ASSERT_GT(polled.size(), 100u);
  EXPECT_EQ(slept, polled);  // same grant on the same edge, every time
  EXPECT_LT(slept_ticks * 3, polled_ticks);
}

// A port in its pace gap whose line the slave refuses wakes nobody when
// the gap ends: the slave still refuses the line then, and only
// space_freed() can change that. One port streams 1 KiB bursts at the
// default 4.8 GB/s (a 13.3 ns gap per line) into a slot that is busy for
// 30.3 ns, so every grant starts a gap that ends while the slot is taken:
// the crossbar ticks once per grant, plus once per burst on the edge that
// finds the port empty.
TEST(InterconnectSleep, PaceGapBehindARefusalSleepsUntilSpaceFreed) {
  const double bps = MasterPortConfig{}.port_bandwidth_bps;
  const auto [polled, polled_ticks] = run_backpressured(true, bps, 1024, 1);
  const auto [slept, slept_ticks] = run_backpressured(false, bps, 1024, 1);
  ASSERT_GT(polled.size(), 100u);
  EXPECT_EQ(slept, polled);  // same grant on the same edge, every time
  EXPECT_LT(static_cast<double>(slept_ticks),
            1.1 * static_cast<double>(slept.size()));
}

}  // namespace
}  // namespace fgqos::axi

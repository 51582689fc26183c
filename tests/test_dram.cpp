// Unit tests for the DRAM subsystem: timing validation, address mapping,
// bank state machine, and controller behaviour driven through a stub
// response sink.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "controller_pins.hpp"
#include "dram/address_mapper.hpp"
#include "dram/bank.hpp"
#include "dram/controller.hpp"
#include "forced_poll.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/metrics.hpp"
#include "timing_checker.hpp"
#include "util/config_error.hpp"

namespace fgqos::dram {
namespace {

// --------------------------------------------------------------------------
// TimingConfig
// --------------------------------------------------------------------------

TEST(TimingConfig, DefaultsValid) {
  TimingConfig t;
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.burst_cycles(), 4u);
  EXPECT_NEAR(t.peak_bandwidth_bps(), 19.2e9, 1e6);
}

TEST(TimingConfig, RejectsBadGeometry) {
  TimingConfig t;
  t.banks = 3;
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
  t = TimingConfig{};
  t.row_bytes = 32;  // smaller than burst
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
  t = TimingConfig{};
  t.tREFI = 100;
  t.tRFC = 200;
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
}

// A controller keeps its bank sets inline, so a channel has at most 256
// banks, in at most 64 bank groups.
TEST(TimingConfig, BoundsBanksAndGroups) {
  TimingConfig t;
  t.banks = 256;
  t.bank_groups = 64;
  EXPECT_NO_THROW(t.validate());
  t.banks = 512;
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
  t.banks = 256;
  t.bank_groups = 128;
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
}

// --------------------------------------------------------------------------
// AddressMapper
// --------------------------------------------------------------------------

TEST(AddressMapper, BankInterleavedRotatesBanks) {
  TimingConfig t;
  AddressMapper m(t, MappingPolicy::kBankInterleaved);
  for (std::uint32_t i = 0; i < t.banks; ++i) {
    const Decoded d = m.decode(static_cast<axi::Addr>(i) * t.burst_bytes);
    EXPECT_EQ(d.bank, i);
    EXPECT_EQ(d.row, 0u);
  }
  // One full rotation later: same banks, next column.
  const Decoded d = m.decode(static_cast<axi::Addr>(t.banks) * t.burst_bytes);
  EXPECT_EQ(d.bank, 0u);
  EXPECT_EQ(d.column, 1u);
}

TEST(AddressMapper, RowBankColumnFillsRowFirst) {
  TimingConfig t;
  AddressMapper m(t, MappingPolicy::kRowBankColumn);
  const std::uint64_t bursts_per_row = t.row_bytes / t.burst_bytes;
  const Decoded first = m.decode(0);
  const Decoded last_in_row = m.decode((bursts_per_row - 1) * t.burst_bytes);
  const Decoded next_bank = m.decode(bursts_per_row * t.burst_bytes);
  EXPECT_EQ(first.bank, 0u);
  EXPECT_EQ(last_in_row.bank, 0u);
  EXPECT_EQ(next_bank.bank, 1u);
}

TEST(AddressMapper, DistinctAddressesDistinctCoordinates) {
  TimingConfig t;
  AddressMapper m(t, MappingPolicy::kBankInterleaved);
  const Decoded a = m.decode(0x100000);
  const Decoded b = m.decode(0x100000 + t.burst_bytes);
  EXPECT_FALSE(a.bank == b.bank && a.row == b.row && a.column == b.column);
}

// --------------------------------------------------------------------------
// Bank
// --------------------------------------------------------------------------

TEST(Bank, ActivateOpensRowAndSetsWindows) {
  Bank b;
  EXPECT_FALSE(b.row_open());
  b.activate(42, 100, 17, 39, 56);
  EXPECT_TRUE(b.row_open());
  EXPECT_TRUE(b.row_hit(42));
  EXPECT_FALSE(b.row_hit(43));
  EXPECT_EQ(b.cas_ready(), 117u);
  EXPECT_EQ(b.pre_ready(), 139u);
  EXPECT_EQ(b.act_ready(), 156u);
  EXPECT_EQ(b.activations(), 1u);
}

TEST(Bank, PrechargeClosesRow) {
  Bank b;
  b.activate(1, 0, 17, 39, 56);
  b.precharge(100, 17);
  EXPECT_FALSE(b.row_open());
  EXPECT_EQ(b.act_ready(), 117u);
}

TEST(Bank, ReadCasExtendsPrechargeWindow) {
  Bank b;
  b.activate(1, 0, 17, 39, 56);
  b.read_cas(35, 9);  // 35 + 9 = 44 > tRAS(39)
  EXPECT_EQ(b.pre_ready(), 44u);
}

TEST(Bank, RefreshBlocksActivation) {
  Bank b;
  b.activate(1, 0, 17, 39, 56);
  b.refresh_block(500);
  EXPECT_FALSE(b.row_open());
  EXPECT_EQ(b.act_ready(), 500u);
}

// --------------------------------------------------------------------------
// Controller through a recording sink
// --------------------------------------------------------------------------

struct RecordingSink final : axi::ResponseSink {
  std::vector<std::pair<axi::Addr, sim::TimePs>> done;
  void line_done(const axi::LineRequest& line, sim::TimePs now) override {
    done.emplace_back(line.addr, now);
  }
};

struct ControllerFixture {
  explicit ControllerFixture(ControllerConfig c = {}) : cfg(std::move(c)) {}

  sim::Simulator sim;
  ControllerConfig cfg;
  sim::ClockDomain clk{"d", cfg.timing.period_ps()};
  RecordingSink sink;
  Controller ctrl{sim, clk, cfg, sink};
  std::vector<std::unique_ptr<axi::Transaction>> txns;

  axi::LineRequest line(axi::Addr addr, bool is_write,
                        axi::MasterId master = 0) {
    auto txn = std::make_unique<axi::Transaction>();
    txn->master = master;
    txn->dir = is_write ? axi::Dir::kWrite : axi::Dir::kRead;
    txn->addr = addr;
    txn->bytes = 64;
    txn->lines_total = 1;
    txn->lines_left = 1;
    axi::LineRequest l;
    l.txn = txn.get();
    l.addr = addr;
    l.bytes = 64;
    l.is_write = is_write;
    l.last_of_txn = true;
    txns.push_back(std::move(txn));
    return l;
  }
};

TEST(Controller, SingleReadCompletesWithReasonableLatency) {
  ControllerFixture f;
  ASSERT_TRUE(f.ctrl.can_accept(f.line(0x1000, false), 0));
  f.ctrl.accept(f.line(0x1000, false), f.sim.now());
  f.sim.run_for(sim::kPsPerUs);
  ASSERT_EQ(f.sink.done.size(), 1u);
  // Closed bank: frontend + tRCD + tCL + burst, roughly 30-45 cycles
  // at 833 ps -> expect between 25 and 100 ns.
  EXPECT_GT(f.sink.done[0].second, 25'000u);
  EXPECT_LT(f.sink.done[0].second, 100'000u);
  EXPECT_EQ(f.ctrl.stats().reads_serviced.value(), 1u);
  EXPECT_EQ(f.ctrl.stats().activations.value(), 1u);
}

TEST(Controller, RowHitFasterThanConflict) {
  ControllerFixture f;
  const TimingConfig& t = f.cfg.timing;
  // Same bank, same row (consecutive columns in interleaved mapping are
  // banks*burst apart).
  const axi::Addr a0 = 0;
  const axi::Addr a1 = static_cast<axi::Addr>(t.banks) * t.burst_bytes;
  f.ctrl.accept(f.line(a0, false), 0);
  f.sim.run_for(sim::kPsPerUs);
  f.ctrl.accept(f.line(a1, false), f.sim.now());
  f.sim.run_for(sim::kPsPerUs);
  const sim::TimePs hit_latency = f.sink.done.back().second - f.sim.now() +
                                  sim::kPsPerUs;  // completion - accept
  // Now a conflicting row in the same bank.
  const axi::Addr a2 =
      static_cast<axi::Addr>(t.banks) * t.row_bytes * 2;  // different row, bank 0
  const sim::TimePs accept_at = f.sim.now();
  f.ctrl.accept(f.line(a2, false), accept_at);
  f.sim.run_for(sim::kPsPerUs);
  const sim::TimePs conflict_latency = f.sink.done.back().second - accept_at;
  EXPECT_LT(hit_latency, conflict_latency);
  EXPECT_GE(f.ctrl.stats().conflict_precharges.value(), 1u);
}

TEST(Controller, QueueCapacityBackpressure) {
  ControllerFixture f;
  for (std::size_t i = 0; i < f.cfg.read_queue_depth; ++i) {
    auto l = f.line(static_cast<axi::Addr>(i) * 64, false);
    ASSERT_TRUE(f.ctrl.can_accept(l, 0));
    f.ctrl.accept(l, 0);
  }
  EXPECT_FALSE(f.ctrl.can_accept(f.line(0x999000, false), 0));
  // Writes use their own queue.
  EXPECT_TRUE(f.ctrl.can_accept(f.line(0x999000, true), 0));
}

TEST(Controller, AllRequestsEventuallyComplete) {
  ControllerFixture f;
  std::size_t sent = 0;
  for (int i = 0; i < 24; ++i) {
    const bool wr = (i % 3) == 0;
    f.ctrl.accept(f.line(static_cast<axi::Addr>(i) * 4096, wr), f.sim.now());
    ++sent;
    f.sim.run_for(10'000);
  }
  f.sim.run_for(10 * sim::kPsPerUs);
  EXPECT_EQ(f.sink.done.size(), sent);
  EXPECT_EQ(f.ctrl.stats().reads_serviced.value() +
                f.ctrl.stats().writes_serviced.value(),
            sent);
}

TEST(Controller, PerMasterAccounting) {
  ControllerFixture f;
  f.ctrl.accept(f.line(0x0, false, 1), 0);
  f.ctrl.accept(f.line(0x40, false, 1), 0);
  f.ctrl.accept(f.line(0x80, false, 2), 0);
  f.sim.run_for(sim::kPsPerUs);
  EXPECT_EQ(f.ctrl.master_bytes(1), 128u);
  EXPECT_EQ(f.ctrl.master_bytes(2), 64u);
  EXPECT_EQ(f.ctrl.master_bytes(7), 0u);
}

TEST(Controller, RefreshHappensPeriodically) {
  ControllerFixture f;
  // Keep the controller awake with periodic traffic across several tREFI.
  const sim::TimePs refi_ps =
      f.cfg.timing.tREFI * f.cfg.timing.period_ps();
  for (int i = 0; i < 40; ++i) {
    f.ctrl.accept(f.line(static_cast<axi::Addr>(i) * 64, false), f.sim.now());
    f.sim.run_for(refi_ps / 8);
  }
  EXPECT_GE(f.ctrl.stats().refreshes.value(), 3u);
}

TEST(Controller, WriteDrainServicesWritesUnderReadLoad) {
  ControllerFixture f;
  // Saturate the write queue past the high watermark, with reads present.
  for (std::size_t i = 0; i < f.cfg.write_queue_depth; ++i) {
    f.ctrl.accept(f.line(0x100000 + static_cast<axi::Addr>(i) * 64, true), 0);
  }
  f.ctrl.accept(f.line(0x0, false), 0);
  f.sim.run_for(10 * sim::kPsPerUs);
  EXPECT_EQ(f.ctrl.stats().writes_serviced.value(), f.cfg.write_queue_depth);
  EXPECT_EQ(f.ctrl.stats().reads_serviced.value(), 1u);
}

// --------------------------------------------------------------------------
// Scheduler pinning: seeded random line streams whose exact outcome (every
// completion time, the controller counters and the blame totals) is
// recorded as a digest, and whose tick count is recorded next to it. Covers
// the paths no golden pins byte for byte: closed page, every mapping policy,
// write-drain watermark crossings, the starvation guard, a refresh storm,
// the attribution pass, a tFAW-bound stream of row misses and two bank
// groups. Ticks stay out of the digest: how often the
// controller wakes is a host-cost property, not a simulated outcome. The
// recorded counts are those of a controller forced to tick every cycle
// while work is queued (testing::ForcedPoll); a napping controller,
// attribution on or off, must fire fewer with the same digest.
// --------------------------------------------------------------------------

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// When \p poll, forces \p ctrl to tick (and \p blame to charge) every
/// cycle while work is queued.
std::unique_ptr<testing::ForcedPoll> force_poll(
    Controller& ctrl, bool poll,
    telemetry::AttributionEngine* blame = nullptr) {
  return poll ? testing::force_poll(ctrl, blame) : nullptr;
}

}  // namespace

PinResult run_pin_case(const PinCase& pc, bool poll,
                       sim::TimePs blame_window_ps, bool keep_windows,
                       CommandObserver* observer) {
  ControllerConfig cfg;
  cfg.page_policy = pc.page;
  cfg.mapping = pc.mapping;
  cfg.starvation_cycles = pc.starvation_cycles;
  cfg.timing.banks = pc.banks;
  cfg.timing.bank_groups = pc.bank_groups;
  ControllerFixture f(cfg);
  const bool seq = pc.stream == PinStream::kSeqReaders;
  const axi::MasterId masters = seq ? 4 : 3;
  telemetry::MetricsRegistry reg;
  telemetry::AttributionEngine eng(reg, blame_window_ps);
  eng.keep_windows(keep_windows);
  if (pc.attribution) {
    for (axi::MasterId m = 0; m < masters; ++m) {
      eng.register_master(m, std::string(1, static_cast<char>('a' + m)));
    }
    f.ctrl.set_attribution(&eng);
  }
  const auto poller =
      force_poll(f.ctrl, poll, pc.attribution ? &eng : nullptr);
  f.ctrl.set_refresh_interval_divisor(pc.refresh_divisor);
  f.ctrl.set_command_observer(observer);

  std::mt19937_64 rng(pc.seed);
  const TimingConfig& t = f.cfg.timing;
  const std::uint64_t lines = t.capacity_bytes / t.burst_bytes;
  std::vector<axi::Addr> cursor(masters);
  for (auto& c : cursor) {
    c = (rng() % lines) * t.burst_bytes;
  }
  std::size_t accepted = 0;
  if (seq) {
    // Four sequential readers 64 MiB apart take turns offering a 1 KiB
    // burst, one line per cycle, as the crossbar forwards exp1_unreg's
    // DMA bursts. A burst covers every bank once, and the other readers'
    // bursts close each row before its reader returns: every line is a
    // row miss, and the full read queue keeps ACTs waiting on tRRD and
    // tFAW.
    constexpr axi::Addr kApart = axi::Addr{64} << 20;
    constexpr int kBurstLines = 16;
    for (axi::MasterId m = 0; m < masters; ++m) {
      cursor[m] = (cursor[0] / 1024 * 1024 + m * kApart) % t.capacity_bytes;
    }
    axi::MasterId m = 0;
    int sent_in_burst = 0;
    for (int step = 0; step < 8000; ++step) {
      const axi::LineRequest l = f.line(cursor[m], false, m);
      if (f.ctrl.can_accept(l, f.sim.now())) {
        f.ctrl.accept(l, f.sim.now());
        ++accepted;
        cursor[m] = (cursor[m] + t.burst_bytes) % t.capacity_bytes;
        if (++sent_in_burst == kBurstLines) {
          sent_in_burst = 0;
          m = static_cast<axi::MasterId>((m + 1) % masters);
        }
      }
      f.sim.run_for(t.period_ps());
    }
  } else {
    // Each master streams sequentially and sometimes jumps anywhere in the
    // channel: row hits, conflicts and bank spread under every mapping.
    // Phases alternate write-heavy and read-heavy so the write queue crosses
    // both drain watermarks repeatedly.
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t write_pct = (step / 500) % 2 == 0 ? 70 : 10;
      const std::uint64_t burst = rng() % 4;
      for (std::uint64_t i = 0; i < burst; ++i) {
        const auto m = static_cast<axi::MasterId>(rng() % masters);
        if (rng() % 4 == 0) {
          cursor[m] = (rng() % lines) * t.burst_bytes;
        } else {
          cursor[m] = (cursor[m] + t.burst_bytes) % t.capacity_bytes;
        }
        const bool wr = rng() % 100 < write_pct;
        const axi::LineRequest l = f.line(cursor[m], wr, m);
        if (f.ctrl.can_accept(l, f.sim.now())) {
          f.ctrl.accept(l, f.sim.now());
          ++accepted;
        }
      }
      f.sim.run_for((1 + rng() % 8) * t.period_ps());
    }
  }
  f.sim.run_for(100 * sim::kPsPerUs);
  EXPECT_EQ(f.sink.done.size(), accepted) << pc.name;
  EXPECT_EQ(f.ctrl.read_queue_size() + f.ctrl.write_queue_size(), 0u);

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [addr, ps] : f.sink.done) {
    fnv_mix(h, addr);
    fnv_mix(h, ps);
  }
  const ControllerStats& s = f.ctrl.stats();
  for (const sim::Counter* c :
       {&s.reads_serviced, &s.writes_serviced, &s.payload_bytes,
        &s.bus_bytes, &s.activations, &s.conflict_precharges, &s.refreshes,
        &s.data_bus_busy_cycles}) {
    fnv_mix(h, c->value());
  }
  if (pc.attribution) {
    eng.finish(f.sim.now());
    for (axi::MasterId v = 0; v < masters; ++v) {
      for (axi::MasterId a = 0; a < masters; ++a) {
        for (std::size_t k = 0; k < telemetry::kCauseCount; ++k) {
          const auto& cell = eng.total(v, a, static_cast<telemetry::Cause>(k));
          fnv_mix(h, cell.stall_ps);
          fnv_mix(h, cell.bytes);
        }
      }
    }
    fnv_mix(h, eng.residual_ps());
  }
  const std::uint64_t commands =
      s.reads_serviced.value() + s.writes_serviced.value() +
      s.activations.value() + s.conflict_precharges.value() +
      s.refreshes.value();
  if (!pc.attribution) {
    return {h, f.ctrl.ticks_fired(), f.ctrl.busy_ticks(), commands, {}, {}};
  }
  return {h,
          f.ctrl.ticks_fired(),
          f.ctrl.busy_ticks(),
          commands,
          testing::blame_record(eng),
          testing::blame_totals(eng)};
}

using MP = MappingPolicy;
using PP = PagePolicy;
const std::vector<PinCase> kPinCases = {
    {"open/interleaved", PP::kOpen, MP::kBankInterleaved, 1200, 1, false,
     1, 0x23093fc4af67def3, 13938},
    {"closed/interleaved", PP::kClosed, MP::kBankInterleaved, 1200, 1,
     false, 2, 0x3763096616cafc2e, 14031},
    {"open/row-bank-col", PP::kOpen, MP::kRowBankColumn, 1200, 1, false, 3,
     0x90fb153f0e52da6c, 14533},
    {"closed/row-bank-col", PP::kClosed, MP::kRowBankColumn, 1200, 1, false,
     4, 0x711283a6dcb4ab40, 14632},
    {"open/partitioned", PP::kOpen, MP::kBankPartitioned, 1200, 1, false,
     5, 0xde9f9b3f15a00c03, 14436},
    {"closed/partitioned", PP::kClosed, MP::kBankPartitioned, 1200, 1,
     false, 6, 0x135c5fa840594a8c, 13849},
    {"open/starve64", PP::kOpen, MP::kBankInterleaved, 64, 1, false, 7,
     0x3c1f562b05d9df5e, 13988},
    {"closed/starve64/refresh4", PP::kClosed, MP::kRowBankColumn, 64, 4,
     false, 8, 0xf277039ee90823d6, 13872},
    {"open/attribution", PP::kOpen, MP::kBankInterleaved, 1200, 1, true, 9,
     0xbc7d442b85a962fc, 14373},
    {"closed/starve64/refresh4/attribution", PP::kClosed,
     MP::kBankPartitioned, 64, 4, true, 10, 0xcc530dbf75ad90c3, 14018},
    {"open/starve64/refresh4/attribution", PP::kOpen, MP::kRowBankColumn,
     64, 4, true, 11, 0x2dfd566bebb10c73, 13899},
    // 128 banks in 8 groups: every bank set spans two 64-bit words.
    {"open/interleaved/128banks", PP::kOpen, MP::kBankInterleaved, 1200, 1,
     false, 12, 0x7230202bec313515, 13785, 128, 8},
    {"closed/row-bank-col/128banks", PP::kClosed, MP::kRowBankColumn, 1200,
     1, false, 13, 0x1e0395c6c8c6f97c, 13568, 128, 8},
    {"open/starve64/partitioned/128banks/attribution", PP::kOpen,
     MP::kBankPartitioned, 64, 1, true, 14, 0x1d0e364e9d3a3bd6, 14015, 128,
     8},
    // The exp1_unreg pattern: a full read queue of row misses, tFAW-bound.
    {"open/seq-readers", PP::kOpen, MP::kBankInterleaved, 1200, 1, false,
     15, 0x0aaa021639ea9907, 8208, 16, 4, PinStream::kSeqReaders},
    // Two bank groups: tRRD_L and tCCD_L bind every other bank.
    {"open/starve64/2groups", PP::kOpen, MP::kBankInterleaved, 64, 1, false,
     16, 0xecfa50f731eefe48, 13988, 16, 2},
};

namespace {

TEST(ControllerPinned, SeededStreamsMatchRecordedDigests) {
  for (const PinCase& pc : kPinCases) {
    const PinResult r = run_pin_case(pc);
    EXPECT_EQ(r.digest, pc.digest) << pc.name;
    EXPECT_LT(r.ticks, pc.ticks) << pc.name;
  }
}

// The nap is invisible: the same streams on a controller forced to tick
// every cycle complete identically (and, with attribution on, charge the
// same blame). These streams cross both drain watermarks, the starvation
// guard and a refresh storm.
TEST(ControllerPinned, NapIsInvisible) {
  for (const PinCase& pc : kPinCases) {
    const PinResult polled = run_pin_case(pc, true);
    EXPECT_EQ(polled.digest, pc.digest) << pc.name;
    EXPECT_EQ(polled.ticks, pc.ticks) << pc.name;
  }
}

// A busy tick is one that issued a command: the controller issues at most
// one per cycle (a closed-page auto-precharge rides on its CAS), so busy
// ticks count CAS, ACT, conflict PRE and refresh, napping or polled.
TEST(ControllerPinned, BusyTicksCountCommands) {
  for (const PinCase& pc : kPinCases) {
    for (const bool poll : {false, true}) {
      const PinResult r = run_pin_case(pc, poll);
      EXPECT_GT(r.busy_ticks, 0u) << pc.name;
      EXPECT_EQ(r.busy_ticks, r.commands) << pc.name << " poll=" << poll;
    }
  }
}

// Every command of every pinned stream is legal: an independent checker
// re-validates each ACT, PRE, CAS and refresh against the timing table.
TEST(ControllerPinned, CommandsAreLegal) {
  using Kind = IssuedCommand::Kind;
  std::array<std::uint64_t, 5> kinds{};
  for (const PinCase& pc : kPinCases) {
    TimingConfig t;
    t.banks = pc.banks;
    t.bank_groups = pc.bank_groups;
    testing::TimingChecker checker(t);
    const PinResult r =
        run_pin_case(pc, false, sim::kPsPerUs, true, &checker);
    EXPECT_EQ(checker.commands(), r.commands) << pc.name;
    EXPECT_EQ(checker.violations(), std::vector<std::string>{}) << pc.name;
    for (const Kind k : {Kind::kAct, Kind::kPre, Kind::kRead, Kind::kWrite,
                         Kind::kRefresh}) {
      kinds[static_cast<std::size_t>(k)] += checker.count(k);
    }
  }
  for (const std::uint64_t n : kinds) {
    EXPECT_GT(n, 0u);  // every kind of command was checked
  }
}

/// One line offered by a TickFeeder at controller cycle \c cycle.
struct FedLine {
  sim::Cycles cycle;
  axi::Addr addr;
  bool is_write;
};

/// Offers a line schedule to the controller from its own tick. It is
/// registered before the controller, as the crossbar is in a Soc, so each
/// accept lands on a controller edge whose tick has not run yet.
class TickFeeder final : public sim::Clocked {
 public:
  TickFeeder(sim::Simulator& sim, const sim::ClockDomain& clk,
             std::vector<FedLine> lines)
      : sim::Clocked(sim, clk, "feeder"), lines_(std::move(lines)) {}
  Controller* ctrl = nullptr;

  bool tick(sim::Cycles cycle) override {
    for (; next_ < lines_.size() && lines_[next_].cycle <= cycle; ++next_) {
      auto txn = std::make_unique<axi::Transaction>();
      txn->lines_total = txn->lines_left = 1;
      axi::LineRequest l;
      l.txn = txn.get();
      l.addr = lines_[next_].addr;
      l.bytes = 64;
      l.is_write = lines_[next_].is_write;
      l.last_of_txn = true;
      txns_.push_back(std::move(txn));
      if (ctrl->can_accept(l, simulator().now())) {
        ctrl->accept(l, simulator().now());
      }
    }
    return next_ < lines_.size();
  }

 private:
  std::vector<FedLine> lines_;
  std::size_t next_ = 0;
  std::vector<std::unique_ptr<axi::Transaction>> txns_;
};

std::vector<std::pair<axi::Addr, sim::TimePs>> run_tick_fed(
    std::vector<FedLine> lines, bool poll) {
  ControllerConfig cfg;
  sim::Simulator sim;
  sim::ClockDomain clk{"d", cfg.timing.period_ps()};
  RecordingSink sink;
  TickFeeder feeder(sim, clk, std::move(lines));
  Controller ctrl(sim, clk, cfg, sink);
  feeder.ctrl = &ctrl;
  const auto poller = force_poll(ctrl, poll);
  sim.run_for(20 * sim::kPsPerUs);
  EXPECT_EQ(ctrl.read_queue_size() + ctrl.write_queue_size(), 0u);
  return sink.done;
}

// A drain start arriving from an earlier-registered tick must take effect
// on that very edge, napping or not. One read to bank 0 keeps the write
// queue out of the scan while it waits on tRCD; the 24th write (the high
// watermark) then lands at each cycle of that wait in turn, and the
// napping controller must start draining exactly when a polling one does.
TEST(ControllerPinned, NapIsInvisibleToTickDrivenAccepts) {
  const TimingConfig t;
  const auto bank_line = [&t](std::uint32_t bank, std::uint32_t row) {
    // Bank-interleaved mapping: consecutive bursts rotate over the banks.
    const std::uint64_t bursts_per_row = t.row_bytes / t.burst_bytes;
    return (static_cast<axi::Addr>(row) * bursts_per_row * t.banks + bank) *
           t.burst_bytes;
  };
  for (sim::Cycles k = 20; k < 60; ++k) {
    std::vector<FedLine> lines{{0, bank_line(0, 1), false}};
    for (std::uint32_t w = 0; w < 23; ++w) {
      lines.push_back({0, bank_line(1 + w % 15, 2 + w), true});
    }
    lines.push_back({k, bank_line(3, 40), true});
    const auto polled = run_tick_fed(lines, true);
    ASSERT_EQ(polled.size(), 25u);
    EXPECT_EQ(run_tick_fed(lines, false), polled) << "24th write at " << k;
  }
}

// A refresh storm armed mid-nap must cut the nap short: the shortened
// interval puts the next refresh before the cycle the controller napped
// to. Two reads arrive just before the first refresh is due, so the
// controller refreshes and then naps through tRFC; the storm lands at
// several points of that nap.
TEST(ControllerPinned, RefreshStormCutsANapShort) {
  const auto run = [](sim::Cycles k, bool poll) {
    ControllerFixture f;
    const auto poller = force_poll(f.ctrl, poll);
    const TimingConfig& t = f.cfg.timing;
    const sim::TimePs period = t.period_ps();
    f.sim.run_until((t.tREFI - 20) * period);
    f.ctrl.accept(f.line(0x0, false), f.sim.now());
    f.ctrl.accept(f.line(0x40, false), f.sim.now());
    f.sim.run_until(k * period);
    f.ctrl.set_refresh_interval_divisor(1000);  // next refresh in ~9 cycles
    f.sim.run_until((k + 12) * period);
    f.ctrl.set_refresh_interval_divisor(1);
    f.sim.run_for(5 * sim::kPsPerUs);
    EXPECT_EQ(f.sink.done.size(), 2u);
    return std::pair(f.sink.done, f.ctrl.stats().refreshes.value());
  };
  const TimingConfig t;
  for (sim::Cycles k = t.tREFI + 40; k < t.tREFI + t.tRFC; k += 50) {
    EXPECT_EQ(run(k, false), run(k, true)) << "storm at cycle " << k;
  }
}

TEST(Controller, ServesMoreThan64Banks) {
  ControllerConfig cfg;
  cfg.timing.banks = 128;
  cfg.timing.bank_groups = 8;
  ControllerFixture f(cfg);
  const TimingConfig& t = f.cfg.timing;
  // Bank-interleaved: consecutive bursts rotate over all 128 banks. Three
  // passes over two rows per bank give activations, row hits and
  // conflicts on every bank, reads and writes mixed.
  const axi::Addr row_set = static_cast<axi::Addr>(t.banks) * t.row_bytes;
  std::size_t sent = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint32_t i = 0; i < 2 * t.banks; ++i) {
      const axi::Addr addr = (pass == 1 ? row_set : 0) +
                             static_cast<axi::Addr>(i) * t.burst_bytes;
      const axi::LineRequest l = f.line(addr, i % 3 == 0);
      while (!f.ctrl.can_accept(l, f.sim.now())) {
        f.sim.run_for(t.period_ps());
      }
      f.ctrl.accept(l, f.sim.now());
      ++sent;
    }
  }
  f.sim.run_for(100 * sim::kPsPerUs);
  EXPECT_EQ(f.sink.done.size(), sent);
  EXPECT_EQ(f.ctrl.stats().reads_serviced.value() +
                f.ctrl.stats().writes_serviced.value(),
            sent);
  EXPECT_GE(f.ctrl.stats().activations.value(), 3u * t.banks);
  for (std::uint32_t bank = 0; bank < t.banks; ++bank) {
    EXPECT_EQ(f.ctrl.bank_cas(0, bank), 6u) << "bank " << bank;
  }
}

// Detaching the blame engine withdraws the controller's settler: settling
// the engine afterwards must not reach back into the controller, whose
// engine pointer is null by then, and the queued lines still finish.
TEST(Controller, DetachingAttributionLeavesNoSettler) {
  ControllerFixture f;
  telemetry::MetricsRegistry reg;
  telemetry::AttributionEngine eng(reg, sim::kPsPerUs);
  eng.register_master(0, "a");
  f.ctrl.set_attribution(&eng);
  for (axi::Addr i = 0; i < 8; ++i) {
    f.ctrl.accept(f.line(i * 0x10'0000, false), f.sim.now());
  }
  f.sim.run_for(30'000);
  f.ctrl.set_attribution(nullptr);
  const std::uint64_t charged = eng.victim_stall_ps(0);
  eng.settle();
  EXPECT_EQ(eng.victim_stall_ps(0), charged);
  f.sim.run_for(sim::kPsPerUs);
  EXPECT_EQ(f.sink.done.size(), 8u);
  eng.settle();
  EXPECT_EQ(eng.victim_stall_ps(0), charged);
}

TEST(ControllerDeathTest, AcceptTimeMustNotGoBackwards) {
  ControllerFixture f;
  f.ctrl.accept(f.line(0x0, false), 1000);
  EXPECT_DEATH(f.ctrl.accept(f.line(0x40, false), 999),
               "accept time went backwards");
}

TEST(ControllerConfig, ValidatesWatermarks) {
  ControllerConfig c;
  c.write_low_watermark = c.write_high_watermark;
  EXPECT_THROW(c.validate(), fgqos::ConfigError);
  c = ControllerConfig{};
  c.write_high_watermark = c.write_queue_depth + 1;
  EXPECT_THROW(c.validate(), fgqos::ConfigError);
}

}  // namespace
}  // namespace fgqos::dram

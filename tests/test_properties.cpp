// Property-style parameterised sweeps over the core invariants:
//  * regulation accuracy across budgets, windows and replenish kinds;
//  * per-window overshoot and credit-overdraft bounds of the regulator
//    under randomized budgets/windows (the tightly-coupled guarantee);
//  * monotonicity of interference in the number of aggressors;
//  * conservation of bytes across the fabric for every traffic pattern;
//  * DRAM timing invariants under random traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <ostream>
#include <tuple>
#include <vector>

#include "sim/random.hpp"
#include "soc/soc.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/serving.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// Regulation accuracy sweep: |measured - programmed| / programmed < 6%
// across budgets and windows, for both replenish kinds.
// --------------------------------------------------------------------------

using AccuracyParam = std::tuple<double /*rate_bps*/, sim::TimePs /*window*/,
                                 qos::ReplenishKind>;

class RegulationAccuracy : public ::testing::TestWithParam<AccuracyParam> {};

TEST_P(RegulationAccuracy, MeasuredMatchesProgrammed) {
  const auto [rate, window, kind] = GetParam();
  soc::SocConfig cfg;
  cfg.default_regulator.window_ps = window;
  cfg.default_regulator.kind = kind;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  chip.add_traffic_gen(0, tg);
  chip.qos_block(1).regulator->set_rate(rate);
  chip.qos_block(1).regulator->set_enabled(true);
  chip.run_for(5 * sim::kPsPerMs);
  const double measured = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value(), chip.now());
  EXPECT_NEAR(measured, rate, rate * 0.06)
      << "rate=" << rate << " window=" << window;
}

INSTANTIATE_TEST_SUITE_P(
    BudgetWindowSweep, RegulationAccuracy,
    ::testing::Combine(
        ::testing::Values(100e6, 400e6, 1200e6, 3200e6),
        ::testing::Values(sim::TimePs{200'000}, sim::TimePs{1'000'000},
                          sim::TimePs{10'000'000}),
        ::testing::Values(qos::ReplenishKind::kFixedWindow,
                          qos::ReplenishKind::kTokenBucket)));

// --------------------------------------------------------------------------
// Regulator hard bounds under randomized budgets and windows, for the
// aggregate gate and for the bank-keyed gate (one bucket per DRAM bank).
// The credit-based design (window.hpp) admits a grant whenever the credit
// is positive and debits the full cost afterwards, so per bucket the
// invariants are:
//  * bytes granted inside any closed regulation window never exceed the
//    replenish amount (budget, or the burst cap for token buckets) plus
//    one transfer of overshoot;
//  * the token credit never overdrafts by a full transfer or more, and
//    never exceeds the burst cap;
//  * the regulator's own overshoot stat equals the probe's largest
//    closed-window byte count minus the budget.
// --------------------------------------------------------------------------

/// Watches one regulated port: window-aligned byte accounting plus the
/// post-debit credit extrema, per bucket. Observers run after gates, so
/// tokens() here is the value the debit just left behind. A bank-keyed
/// regulator's lines are decoded with the probe's own \p bank_map.
class RegulatorProbe final : public axi::TxnObserver {
 public:
  RegulatorProbe(const qos::Regulator& reg, sim::TimePs window_ps,
                 std::optional<dram::AddressMapper> bank_map)
      : reg_(reg),
        bank_map_(std::move(bank_map)),
        windowed_(std::max(reg.banks(), 1u), sim::WindowedBytes(window_ps)),
        min_tokens_(windowed_.size(), 0),
        max_tokens_(windowed_.size(), 0) {}

  void on_issue(const axi::Transaction&, sim::TimePs) override {}
  void on_grant(const axi::LineRequest& l, sim::TimePs now) override {
    const std::uint32_t k = bank_map_ ? bank_map_->decode(l.addr).bank : 0;
    windowed_[k].add(now, l.bytes);
    min_tokens_[k] = std::min(min_tokens_[k], reg_.tokens(k));
    max_tokens_[k] = std::max(max_tokens_[k], reg_.tokens(k));
    max_line_ = std::max<std::uint64_t>(max_line_, l.bytes);
  }
  void on_complete(const axi::Transaction&, sim::TimePs) override {}

  void flush(sim::TimePs now) {
    for (sim::WindowedBytes& w : windowed_) {
      w.flush(now);
    }
  }
  [[nodiscard]] const sim::WindowedBytes& windows(std::uint32_t k) const {
    return windowed_[k];
  }
  [[nodiscard]] std::int64_t min_tokens(std::uint32_t k) const {
    return min_tokens_[k];
  }
  [[nodiscard]] std::int64_t max_tokens(std::uint32_t k) const {
    return max_tokens_[k];
  }
  [[nodiscard]] std::uint64_t max_line() const { return max_line_; }

 private:
  const qos::Regulator& reg_;
  std::optional<dram::AddressMapper> bank_map_;
  std::vector<sim::WindowedBytes> windowed_;
  std::vector<std::int64_t> min_tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::uint64_t max_line_ = 0;
};

/// One randomized point: the seed, and which bucket key the gate uses.
struct BoundsPoint {
  std::uint64_t seed;
  bool bank_keyed;
};

void PrintTo(const BoundsPoint& p, std::ostream* os) {
  *os << (p.bank_keyed ? "bank" : "") << p.seed;
}

std::vector<BoundsPoint> bounds_points(bool bank_keyed) {
  std::vector<BoundsPoint> points;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    points.push_back({seed, bank_keyed});
  }
  return points;
}

class RegulatorBounds : public ::testing::TestWithParam<BoundsPoint> {};

TEST_P(RegulatorBounds, WindowOvershootAndOverdraftBounded) {
  // Each seed draws a fresh random (budget, window, kind, pattern) point;
  // the bounds must hold at every single one.
  const auto [seed, bank_keyed] = GetParam();
  sim::Xoshiro256 rng(seed);
  const double rate_bps = 5e7 * static_cast<double>(rng.next_in(1, 60));
  const sim::TimePs window_ps =
      static_cast<sim::TimePs>(rng.next_in(200, 2000)) * sim::kPsPerNs *
      (rng.next_bool(0.5) ? 1 : 50);
  const auto kind = rng.next_bool(0.5) ? qos::ReplenishKind::kFixedWindow
                                       : qos::ReplenishKind::kTokenBucket;
  const auto pattern =
      rng.next_bool(0.5) ? wl::Pattern::kSeqRead : wl::Pattern::kRandomRead;

  soc::SocConfig cfg;
  cfg.default_regulator.window_ps = window_ps;
  cfg.default_regulator.kind = kind;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.pattern = pattern;
  tg.seed = rng.next();
  chip.add_traffic_gen(0, tg);
  qos::Regulator* reg = chip.qos_block(1).regulator.get();
  std::optional<dram::AddressMapper> bank_map;
  if (bank_keyed) {
    // The same draw per bank, a quarter of the banks left unregulated.
    qos::RegulatorConfig rc;
    rc.window_ps = window_ps;
    rc.kind = kind;
    for (std::uint32_t b = 0; b < cfg.dram.timing.banks; ++b) {
      rc.bank_budget_bytes.push_back(
          rng.next_bool(0.25)
              ? 0
              : qos::budget_for_rate(rate_bps / 4, window_ps));
    }
    reg = &chip.add_bank_regulator(1, rc);
    bank_map.emplace(cfg.dram.timing, cfg.dram.mapping);
  } else {
    reg->set_rate(rate_bps);
    reg->set_enabled(true);
  }
  // Window-aligned with the regulator: both start counting at t=0 and
  // replenish events fire before same-timestamp grant ticks.
  RegulatorProbe probe(*reg, window_ps, bank_map);
  chip.accel_port(0).add_observer(probe);

  chip.run_for(3 * sim::kPsPerMs);
  probe.flush(chip.now());

  SCOPED_TRACE("rate=" + std::to_string(rate_bps) +
               " window=" + std::to_string(window_ps) +
               " bank_keyed=" + std::to_string(bank_keyed));
  std::uint32_t checked = 0;
  for (std::uint32_t k = 0; k < std::max(reg->banks(), 1u); ++k) {
    if (bank_keyed && !reg->bank_limited(k)) {
      continue;
    }
    const std::uint64_t budget = bank_keyed
                                     ? reg->config().bank_budget_bytes[k]
                                     : reg->config().budget_bytes;
    const std::uint64_t cap = budget * reg->config().max_accumulation_windows;
    const std::uint64_t replenish_bound =
        (kind == qos::ReplenishKind::kTokenBucket ? cap : budget);
    SCOPED_TRACE("bucket=" + std::to_string(k) +
                 " budget=" + std::to_string(budget));
    const std::vector<std::uint64_t>& samples = probe.windows(k).samples();
    ASSERT_GT(samples.size(), 2u);
    for (const std::uint64_t bytes : samples) {
      EXPECT_LE(bytes, replenish_bound + probe.max_line());
    }
    // Overdraft strictly smaller than one transfer; credit never exceeds
    // the burst cap.
    EXPECT_GT(probe.min_tokens(k),
              -static_cast<std::int64_t>(probe.max_line()));
    EXPECT_LE(probe.max_tokens(k), static_cast<std::int64_t>(cap));
    // The regulator's running max agrees with the independent probe.
    const std::uint64_t most = probe.windows(k).max_window_bytes();
    const qos::RegulatorStats& rs =
        bank_keyed ? reg->bank_stats(k) : reg->stats();
    EXPECT_EQ(rs.max_overshoot_bytes, most > budget ? most - budget : 0);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomizedPoints, RegulatorBounds,
                         ::testing::ValuesIn(bounds_points(false)));
INSTANTIATE_TEST_SUITE_P(BankKeyedPoints, RegulatorBounds,
                         ::testing::ValuesIn(bounds_points(true)));

// --------------------------------------------------------------------------
// Interference monotonicity: more aggressors never make the critical task
// meaningfully faster.
// --------------------------------------------------------------------------

class InterferenceMonotonic : public ::testing::TestWithParam<int> {};

double critical_iter_mean(std::size_t n_gens, wl::Pattern pattern) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  wl::PointerChaseConfig pc;
  pc.accesses_per_iteration = 256;
  cpu::CoreConfig cc;
  cc.max_iterations = 4;
  chip.add_core(cc, wl::make_pointer_chase(pc));
  for (std::size_t i = 0; i < n_gens; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "g" + std::to_string(i);
    tg.pattern = pattern;
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 11 + i;
    chip.add_traffic_gen(i, tg);
  }
  EXPECT_TRUE(chip.run_until_cores_finished(200 * sim::kPsPerMs));
  return chip.cluster().core(0).stats().iteration_ps.mean();
}

TEST_P(InterferenceMonotonic, MoreAggressorsNeverHelp) {
  const auto pattern = static_cast<wl::Pattern>(GetParam());
  double prev = critical_iter_mean(0, pattern);
  for (std::size_t n = 1; n <= 4; n += 1) {
    const double cur = critical_iter_mean(n, pattern);
    // 10% tolerance: once the bus saturates, adding aggressors only
    // reshuffles queueing noise.
    EXPECT_GE(cur, prev * 0.90) << "aggressors=" << n;
    prev = std::max(prev, cur);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, InterferenceMonotonic,
    ::testing::Values(static_cast<int>(wl::Pattern::kSeqRead),
                      static_cast<int>(wl::Pattern::kSeqWrite),
                      static_cast<int>(wl::Pattern::kRandomRead)));

// --------------------------------------------------------------------------
// Byte conservation for every pattern.
// --------------------------------------------------------------------------

class ByteConservation : public ::testing::TestWithParam<int> {};

TEST_P(ByteConservation, IssuedEqualsGrantedEqualsServiced) {
  const auto pattern = static_cast<wl::Pattern>(GetParam());
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.pattern = pattern;
  tg.max_bytes = 1 << 20;
  wl::TrafficGen& gen = chip.add_traffic_gen(0, tg);
  chip.run_for(10 * sim::kPsPerMs);
  ASSERT_TRUE(gen.drained());
  EXPECT_EQ(gen.stats().issued_bytes, gen.stats().completed_bytes);
  EXPECT_EQ(gen.stats().issued_bytes,
            chip.accel_port(0).stats().bytes_granted.value());
  EXPECT_EQ(gen.stats().issued_bytes,
            chip.dram().master_bytes(chip.accel_port(0).id()));
  EXPECT_EQ(gen.stats().issued_bytes,
            chip.qos_block(1).monitor->total_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ByteConservation,
    ::testing::Values(static_cast<int>(wl::Pattern::kSeqRead),
                      static_cast<int>(wl::Pattern::kSeqWrite),
                      static_cast<int>(wl::Pattern::kCopy),
                      static_cast<int>(wl::Pattern::kRandomRead),
                      static_cast<int>(wl::Pattern::kRandomWrite),
                      static_cast<int>(wl::Pattern::kStrided)));

// --------------------------------------------------------------------------
// DRAM invariants under random mixes: every accepted request completes,
// bus utilisation stays within [0,1], hit+miss accounting is consistent.
// --------------------------------------------------------------------------

class DramInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DramInvariants, AccountingConsistentUnderRandomMix) {
  soc::SocConfig cfg;
  cfg.qos_blocks = false;
  soc::Soc chip(cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "g" + std::to_string(i);
    tg.pattern = i == 0 ? wl::Pattern::kRandomRead
                        : (i == 1 ? wl::Pattern::kRandomWrite
                                  : wl::Pattern::kCopy);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = GetParam() + i;
    tg.max_bytes = 512 * 1024;
    chip.add_traffic_gen(i, tg);
  }
  chip.run_for(10 * sim::kPsPerMs);
  const auto& ds = chip.dram().stats();
  const std::uint64_t serviced =
      ds.reads_serviced.value() + ds.writes_serviced.value();
  // Payload arrived in 64B lines; every line is one burst.
  EXPECT_EQ(ds.payload_bytes.value(), serviced * 64);
  EXPECT_EQ(ds.bus_bytes.value(), serviced * cfg.dram.timing.burst_bytes);
  // Activations may exceed CAS count (rows opened then closed by a
  // drain-mode switch before their request issued), but every wasted ACT
  // pairs with a conflict precharge.
  EXPECT_LE(ds.activations.value(),
            serviced + ds.conflict_precharges.value());
  EXPECT_GE(ds.activations.value(), ds.conflict_precharges.value());
  const double util = chip.dram().bus_utilization(chip.now());
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0);
  // All three generators drained completely.
  EXPECT_EQ(ds.payload_bytes.value(), 3u * 512u * 1024u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramInvariants,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// --------------------------------------------------------------------------
// Guarantee invariant: under full best-effort saturation, a reserved
// critical generator keeps >= 90% of its programmed rate, for a sweep of
// reservation levels.
// --------------------------------------------------------------------------

class GuaranteeHolds : public ::testing::TestWithParam<double> {};

TEST_P(GuaranteeHolds, ReservedRateDelivered) {
  const double reserved = GetParam();
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  // Critical generator paced at its reserved rate on port 0.
  wl::TrafficGenConfig crit;
  crit.name = "critical";
  crit.target_bps = reserved;
  crit.seed = 3;
  wl::TrafficGen& cgen = chip.add_traffic_gen(0, crit);
  // Three saturating aggressors, each regulated to a fair share of the
  // remaining capacity.
  const double remaining = 11e9 - reserved;  // measured platform peak ~11-12
  for (std::size_t i = 1; i < 4; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 20 + i;
    chip.add_traffic_gen(i, tg);
    chip.qos_block(1 + i).regulator->set_rate(remaining / 3);
    chip.qos_block(1 + i).regulator->set_enabled(true);
  }
  chip.run_for(5 * sim::kPsPerMs);
  const double achieved = sim::bytes_per_second(
      cgen.port().stats().bytes_granted.value(), chip.now());
  EXPECT_GT(achieved, reserved * 0.9) << "reserved=" << reserved;
}

INSTANTIATE_TEST_SUITE_P(ReservationSweep, GuaranteeHolds,
                         ::testing::Values(0.5e9, 1e9, 2e9, 4e9));

// --------------------------------------------------------------------------
// Serving-workload generator statistics (seeded, deterministic):
//  * Zipfian rank-frequency law recovers the configured exponent;
//  * Poisson inter-arrivals have the configured mean and unit CV;
//  * MMPP inter-arrivals are overdispersed (CV > 1) at the blended rate;
//  * op buffers are a pure function of (spec, duration, seed).
// --------------------------------------------------------------------------

class ZipfSlope : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSlope, RankFrequencyRecoversTheExponent) {
  const double s = GetParam();
  constexpr std::uint64_t kKeys = 1024;
  constexpr std::uint64_t kSamples = 400'000;
  const wl::ZipfianSampler zipf(kKeys, s);
  sim::Xoshiro256 rng(0xC0FFEEull + static_cast<std::uint64_t>(s * 100));
  std::vector<std::uint64_t> freq(kKeys, 0);
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    ++freq[zipf.sample(rng)];
  }
  // Least-squares fit of log(freq) vs log(rank+1) over the top 64 ranks
  // (each holds hundreds of samples at these exponents, so counting noise
  // is small). The fitted slope must be -s.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  constexpr int kRanks = 64;
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_GT(freq[static_cast<std::size_t>(r)], 0u);
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(static_cast<double>(freq[
        static_cast<std::size_t>(r)]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope =
      (kRanks * sxy - sx * sy) / (kRanks * sxx - sx * sx);
  EXPECT_NEAR(slope, -s, 0.08) << "s=" << s;
}

INSTANTIATE_TEST_SUITE_P(ExponentSweep, ZipfSlope,
                         ::testing::Values(0.9, 0.99, 1.2));

namespace {
struct InterArrivalStats {
  double mean_ps = 0;
  double cv = 0;
  std::size_t count = 0;
};

InterArrivalStats inter_arrival_stats(const std::vector<sim::TimePs>& at) {
  InterArrivalStats st;
  st.count = at.size();
  if (at.size() < 2) {
    return st;
  }
  std::vector<double> gaps;
  gaps.reserve(at.size() - 1);
  for (std::size_t i = 1; i < at.size(); ++i) {
    gaps.push_back(static_cast<double>(at[i] - at[i - 1]));
  }
  double sum = 0;
  for (const double g : gaps) {
    sum += g;
  }
  st.mean_ps = sum / static_cast<double>(gaps.size());
  double var = 0;
  for (const double g : gaps) {
    var += (g - st.mean_ps) * (g - st.mean_ps);
  }
  var /= static_cast<double>(gaps.size());
  st.cv = std::sqrt(var) / st.mean_ps;
  return st;
}
}  // namespace

TEST(ServingArrivals, PoissonMeanAndUnitCv) {
  wl::ServingTenantSpec t;
  t.arrival = wl::ArrivalKind::kPoisson;
  t.rate_qps = 1e6;  // mean gap 1 us
  const auto at = wl::generate_arrivals(t, 100 * sim::kPsPerMs, 42);
  const InterArrivalStats st = inter_arrival_stats(at);
  ASSERT_GT(st.count, 90'000u);
  EXPECT_NEAR(st.mean_ps, 1e6, 1e6 * 0.02);
  EXPECT_NEAR(st.cv, 1.0, 0.03);  // exponential gaps: CV = 1
}

TEST(ServingArrivals, MmppIsOverdispersedAtTheBlendedRate) {
  wl::ServingTenantSpec t;
  t.arrival = wl::ArrivalKind::kMmpp;
  t.rate_qps = 100e3;
  t.burst_qps = 1e6;
  t.dwell_ps = sim::kPsPerMs;
  t.burst_dwell_ps = sim::kPsPerMs;
  const sim::TimePs horizon = 200 * sim::kPsPerMs;
  const auto at = wl::generate_arrivals(t, horizon, 42);
  const InterArrivalStats st = inter_arrival_stats(at);
  // Equal dwell in both states: blended rate = (100k + 1M) / 2 = 550k qps.
  const double expected = 550e3 * 0.2;
  EXPECT_NEAR(static_cast<double>(st.count), expected, expected * 0.10);
  // Burstiness: a plain Poisson process has CV = 1; the two-state
  // modulation must push the gap CV clearly above it.
  EXPECT_GT(st.cv, 1.2);
}

TEST(ServingOps, BuffersAreAPureFunctionOfSpecAndSeed) {
  wl::ServingTenantSpec t;
  t.rate_qps = 500e3;
  t.key_count = 4096;
  t.value_bytes = 256;
  t.value_bytes_max = 4096;
  t.read_fraction = 0.9;
  const sim::TimePs horizon = 10 * sim::kPsPerMs;

  const auto a = wl::generate_ops(t, horizon, 77);
  const auto b = wl::generate_ops(t, horizon, 77);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 1000u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].arrival_ps, b[i].arrival_ps) << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << i;
    ASSERT_EQ(a[i].bytes, b[i].bytes) << i;
    ASSERT_EQ(a[i].dir, b[i].dir) << i;
  }

  // A different seed must change the stream...
  const auto c = wl::generate_ops(t, horizon, 78);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival_ps != c[i].arrival_ps || a[i].addr != c[i].addr;
  }
  EXPECT_TRUE(differs);

  // ...and the per-tenant seed lineage separates tenants and runs but is
  // itself deterministic (the --jobs-independence anchor: worker schedule
  // never enters the derivation).
  EXPECT_EQ(wl::serving_tenant_seed(1, 2, 0), wl::serving_tenant_seed(1, 2, 0));
  EXPECT_NE(wl::serving_tenant_seed(1, 2, 0), wl::serving_tenant_seed(1, 2, 1));
  EXPECT_NE(wl::serving_tenant_seed(1, 2, 0), wl::serving_tenant_seed(1, 3, 0));

  // The in-platform path uses exactly this lineage: two independently
  // built platforms replay byte-identical op buffers.
  wl::ServingSpec spec;
  spec.seed = 9;
  spec.duration_ps = 2 * sim::kPsPerMs;
  t.name = "lc";
  t.port = 0;
  spec.tenants.push_back(t);
  soc::Soc one{soc::SocConfig{}};
  soc::Soc two{soc::SocConfig{}};
  one.add_serving(spec, 4);
  two.add_serving(spec, 4);
  const auto& oa = one.serving_tenant(0).ops();
  const auto& ob = two.serving_tenant(0).ops();
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    ASSERT_EQ(oa[i].addr, ob[i].addr) << i;
    ASSERT_EQ(oa[i].arrival_ps, ob[i].arrival_ps) << i;
  }
}

}  // namespace
}  // namespace fgqos

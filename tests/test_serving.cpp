// Request-serving workload layer:
//  * ServingSpec JSON schema — strict rejection naming the offending
//    field, and exact round-trip of >2^53 seeds through to_json();
//  * open-loop semantics — a stalled service path must not slow the
//    offered load (the queue grows and overflows instead);
//  * accounting conservation — generated == completed + dropped +
//    in_flight + queue_depth at any instant, with equality of the
//    finished split after drain;
//  * port exclusivity between serving tenants and traffic generators;
//  * the shared Zipf table — one bit-exact table per (keys, s), guide
//    searches equal to the full inverse-CDF search, and op buffers built
//    on four threads at once equal to the serial one;
//  * the headline QoS defense — an LC tenant misses its SLO against
//    unregulated bulk masters, and the regulator + SLA watchdog +
//    adaptive controller stack restores attainment >= 99%.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "exec/scenario_runner.hpp"
#include "scenario/scenario.hpp"
#include "soc/soc.hpp"
#include "util/config_error.hpp"
#include "workload/serving.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// JSON schema
// --------------------------------------------------------------------------

void expect_reject(const std::string& doc, const std::string& needle) {
  SCOPED_TRACE(doc);
  try {
    (void)wl::ServingSpec::from_json(doc);
    FAIL() << "accepted malformed spec: " << doc;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error '" << e.what() << "' does not name '" << needle << "'";
  }
}

TEST(ServingSpecJson, RejectsMalformedDocumentsNamingTheField) {
  expect_reject("[]", "top level");
  expect_reject(R"({"sed": 1})", "sed");
  expect_reject(R"({"seed": -1})", "seed");
  expect_reject(R"({"duration_us": 0})", "duration_us");
  expect_reject(R"({"tenants": {}})", "tenants");
  expect_reject(R"({"tenants": [[]]})", "tenant");
  expect_reject(R"({"tenants": [{"rate_qp": 1}]})", "rate_qp");
  expect_reject(R"({"tenants": [{"name": "bad name!"}]})", "name");
  expect_reject(R"({"tenants": [{"rate_qps": 0}]})", "rate_qps");
  expect_reject(R"({"tenants": [{"rate_qps": 2e9}]})", "rate_qps");
  expect_reject(R"({"tenants": [{"arrival": "uniform"}]})", "arrival");
  expect_reject(R"({"tenants": [{"arrival": "mmpp"}]})", "burst_qps");
  expect_reject(
      R"({"tenants": [{"arrival": "mmpp", "burst_qps": 5e5}]})", "dwell_us");
  expect_reject(
      R"({"tenants": [{"arrival": "mmpp", "burst_qps": 5e5,
                       "dwell_us": 100}]})",
      "burst_dwell_us");
  expect_reject(R"({"tenants": [{"burst_qps": 5e5}]})", "mmpp");
  expect_reject(R"({"tenants": [{"dwell_us": 100}]})", "mmpp");
  expect_reject(R"({"tenants": [{"zipf_s": 9}]})", "zipf_s");
  expect_reject(R"({"tenants": [{"keys": 0}]})", "keys");
  expect_reject(R"({"tenants": [{"value_bytes": 0}]})", "value_bytes");
  expect_reject(
      R"({"tenants": [{"value_bytes": 1024, "value_bytes_max": 512}]})",
      "value_bytes_max");
  expect_reject(R"({"tenants": [{"read_fraction": 1.5}]})", "read_fraction");
  expect_reject(R"({"tenants": [{"slo_us": 0}]})", "slo_us");
  expect_reject(R"({"tenants": [{"max_outstanding": 0}]})", "max_outstanding");
  expect_reject(R"({"tenants": [{"max_outstanding": 65}]})",
                "max_outstanding");
  expect_reject(R"({"tenants": [{"queue_capacity": 0}]})", "queue_capacity");
  expect_reject(R"({"tenants": [{"name": "a"}, {"name": "a", "port": 1}]})",
                "duplicate");
  expect_reject(R"({"tenants": [{"name": "a"}, {"name": "b"}]})", "port");
}

TEST(ServingSpecJson, RoundTripsHugeSeedsAndAllFieldsExactly) {
  wl::ServingSpec spec;
  spec.seed = 18446744073709551615ull;  // > 2^53: must not pass through double
  spec.duration_ps = 12 * sim::kPsPerMs;
  wl::ServingTenantSpec lc;
  lc.name = "lc";
  lc.port = 0;
  lc.arrival = wl::ArrivalKind::kMmpp;
  lc.rate_qps = 150000;
  lc.burst_qps = 600000;
  lc.dwell_ps = 2 * sim::kPsPerMs;
  lc.burst_dwell_ps = 500 * sim::kPsPerUs;
  lc.zipf_s = 1.2;
  lc.key_count = 4096;
  lc.value_bytes = 256;
  lc.value_bytes_max = 4096;
  lc.read_fraction = 0.9;
  lc.slo_ps = 3 * sim::kPsPerUs;
  lc.max_outstanding = 16;
  lc.queue_capacity = 512;
  lc.start_ps = 100 * sim::kPsPerUs;
  spec.tenants.push_back(lc);
  wl::ServingTenantSpec be;
  be.name = "be";
  be.port = 2;
  spec.tenants.push_back(be);

  const wl::ServingSpec twice = wl::ServingSpec::from_json(spec.to_json());
  EXPECT_EQ(twice.seed, 18446744073709551615ull);
  EXPECT_EQ(twice.duration_ps, spec.duration_ps);
  ASSERT_EQ(twice.tenants.size(), 2u);
  EXPECT_EQ(twice.tenants[0].arrival, wl::ArrivalKind::kMmpp);
  EXPECT_EQ(twice.tenants[0].dwell_ps, lc.dwell_ps);
  EXPECT_EQ(twice.tenants[0].start_ps, lc.start_ps);
  EXPECT_EQ(twice.tenants[0].value_bytes_max, 4096u);
  EXPECT_EQ(spec.to_json(), twice.to_json());

  wl::ServingSpec odd;
  odd.seed = (1ull << 53) + 1;  // smallest seed a double silently corrupts
  odd.tenants.push_back(wl::ServingTenantSpec{});
  EXPECT_EQ(wl::ServingSpec::from_json(odd.to_json()).seed, (1ull << 53) + 1);
}

// --------------------------------------------------------------------------
// Open-loop semantics and conservation
// --------------------------------------------------------------------------

/// Blocks every grant — a service path that never makes progress.
class BlockAllGate final : public axi::TxnGate {
 public:
  [[nodiscard]] bool allow(const axi::LineRequest&,
                           sim::TimePs) const override {
    return false;
  }
  void on_grant(const axi::LineRequest&, sim::TimePs) override {}
};

wl::ServingSpec small_spec(sim::TimePs duration_ps) {
  wl::ServingSpec spec;
  spec.seed = 5;
  spec.duration_ps = duration_ps;
  wl::ServingTenantSpec t;
  t.name = "lc";
  t.port = 0;
  t.rate_qps = 200000;
  t.key_count = 1024;
  t.value_bytes = 256;
  t.queue_capacity = 64;
  t.slo_ps = 2 * sim::kPsPerUs;
  spec.tenants.push_back(t);
  return spec;
}

TEST(ServingTenant, OpenLoopArrivalsDoNotSlowWhenServiceStalls) {
  const wl::ServingSpec spec = small_spec(5 * sim::kPsPerMs);

  soc::Soc free_chip{soc::SocConfig{}};
  free_chip.add_serving(spec, 1);

  soc::Soc stalled_chip{soc::SocConfig{}};
  BlockAllGate gate;
  stalled_chip.accel_port(0).add_gate(gate);
  stalled_chip.add_serving(spec, 1);

  free_chip.run_until(spec.duration_ps);
  stalled_chip.run_until(spec.duration_ps);

  const wl::ServingTenant& free_t = free_chip.serving_tenant(0);
  const wl::ServingTenant& stalled_t = stalled_chip.serving_tenant(0);

  // Open loop: the offered load is identical whether or not the service
  // path makes progress — a closed-loop generator would have throttled.
  EXPECT_EQ(stalled_t.stats().generated, free_t.stats().generated);
  EXPECT_GT(free_t.stats().generated, 900u);  // ~200k qps * 5 ms

  // The stalled tenant converts the backlog into queue growth and drops.
  EXPECT_EQ(stalled_t.stats().completed, 0u);
  EXPECT_EQ(stalled_t.queue_depth(), spec.tenants[0].queue_capacity);
  EXPECT_EQ(stalled_t.stats().peak_queue_depth,
            spec.tenants[0].queue_capacity);
  EXPECT_GT(stalled_t.stats().dropped, 0u);
  EXPECT_LT(stalled_t.slo_attainment(), 0.01);

  // The free tenant kept up.
  EXPECT_EQ(free_t.stats().dropped, 0u);
  EXPECT_GT(free_t.stats().completed, 0u);
}

TEST(ServingTenant, ConservationHoldsMidRunAndAfterDrain) {
  const wl::ServingSpec spec = small_spec(5 * sim::kPsPerMs);
  soc::Soc chip{soc::SocConfig{}};
  chip.add_serving(spec, 3);
  const wl::ServingTenant& t = chip.serving_tenant(0);

  for (int step = 1; step <= 10; ++step) {
    chip.run_until(static_cast<sim::TimePs>(step) * 500 * sim::kPsPerUs);
    const wl::ServingTenantStats& s = t.stats();
    EXPECT_EQ(s.generated,
              s.completed + s.dropped + t.in_flight() + t.queue_depth())
        << "at " << chip.now() << " ps";
  }

  ASSERT_TRUE(chip.run_until_serving_drained(chip.now() + 10 * sim::kPsPerMs));
  const wl::ServingTenantStats& s = t.stats();
  EXPECT_EQ(s.generated, s.completed + s.dropped);
  EXPECT_EQ(s.completed, t.latency().count());
  EXPECT_GT(s.completed_bytes, 0u);
  EXPECT_LE(s.slo_met, s.completed);
}

TEST(ServingTenant, PortExclusivityIsEnforcedBothWays) {
  wl::ServingSpec spec = small_spec(sim::kPsPerMs);

  {
    soc::Soc chip{soc::SocConfig{}};
    chip.add_serving(spec, 1);
    wl::TrafficGenConfig tg;
    EXPECT_THROW((void)chip.add_traffic_gen(0, tg), ConfigError);
    EXPECT_NO_THROW((void)chip.add_traffic_gen(1, tg));
  }
  {
    soc::Soc chip{soc::SocConfig{}};
    wl::TrafficGenConfig tg;
    chip.add_traffic_gen(0, tg);
    EXPECT_THROW((void)chip.add_serving(spec, 1), ConfigError);
  }
  {
    soc::Soc chip{soc::SocConfig{}};
    chip.add_serving_tenant(spec.tenants[0], spec.duration_ps, 1);
    EXPECT_THROW(
        (void)chip.add_serving_tenant(spec.tenants[0], spec.duration_ps, 2),
        ConfigError);
  }
}

// --------------------------------------------------------------------------
// The shared Zipf table
// --------------------------------------------------------------------------

/// The CDF as the sampler has always computed it: sequential pow sum,
/// normalised by the total, last entry pinned to 1.
std::vector<double> fresh_zipf_cdf(std::uint64_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf[i] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }
  cdf.back() = 1.0;
  return cdf;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ZipfTable, OneShapeSharesOneBitExactTable) {
  const wl::ZipfianSampler a(65536, 0.99);
  const wl::ZipfianSampler b(65536, 0.99);
  EXPECT_EQ(&a.table(), &b.table());
  EXPECT_TRUE(same_bits(a.table().cdf, fresh_zipf_cdf(65536, 0.99)));

  // Another shape replaces the cached table; samplers holding the old one
  // keep it, and the next sampler of the old shape builds it again.
  const wl::ZipfianSampler other(65536, 1.2);
  EXPECT_NE(&other.table(), &a.table());
  EXPECT_TRUE(same_bits(other.table().cdf, fresh_zipf_cdf(65536, 1.2)));
  const wl::ZipfianSampler again(65536, 0.99);
  EXPECT_NE(&again.table(), &a.table());
  EXPECT_TRUE(same_bits(again.table().cdf, a.table().cdf));
  const wl::ZipfianSampler fewer(1024, 0.99);
  EXPECT_NE(&fewer.table(), &again.table());
  EXPECT_TRUE(same_bits(fewer.table().cdf, fresh_zipf_cdf(1024, 0.99)));
}

TEST(ZipfTable, GuideSearchEqualsFullSearch) {
  for (const std::uint64_t n : {1ull, 2ull, 7ull, 65536ull}) {
    for (const double s : {0.0, 0.99, 8.0}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
      const wl::ZipfianSampler z(n, s);
      const std::vector<double>& cdf = z.table().cdf;
      const auto full = [&](double u) {
        const auto idx = static_cast<std::uint64_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return std::min(idx, n - 1);
      };
      std::size_t checked = 0;
      const auto check = [&](double u) {
        if (!(u >= 0.0 && u < 1.0)) {
          return true;
        }
        ++checked;
        if (z.rank_at(u) == full(u)) {
          return true;
        }
        ADD_FAILURE() << "u=" << u << " guide " << z.rank_at(u) << " full "
                      << full(u);
        return false;
      };
      sim::Xoshiro256 rng(n * 1000 + static_cast<std::uint64_t>(s * 100));
      for (int i = 0; i < 100000; ++i) {
        ASSERT_TRUE(check(rng.next_double()));
      }
      // Every bucket edge and the CDF's own steps, each with its nearest
      // neighbours on both sides.
      const std::size_t m = z.table().guide.size() - 1;
      std::vector<double> points;
      for (std::size_t k = 0; k <= m; ++k) {
        points.push_back(static_cast<double>(k) / static_cast<double>(m));
      }
      points.insert(points.end(), cdf.begin(), cdf.end());
      for (const double p : points) {
        ASSERT_TRUE(check(std::nextafter(p, -1.0)));
        ASSERT_TRUE(check(p));
        ASSERT_TRUE(check(std::nextafter(p, 2.0)));
      }
      EXPECT_GT(checked, 100000u);
    }
  }
}

TEST(ZipfTable, ConcurrentGenerateOpsEqualsSerial) {
  const wl::ServingSpec serving =
      scenario::kv_serving(200e3, 2 * sim::kPsPerMs);
  const wl::ServingTenantSpec& spec = serving.tenants[0];
  // Another shape in the cache makes the four jobs race on the first
  // build of this one.
  (void)wl::ZipfianSampler(3, 0.5);
  exec::ScenarioRunner runner({4, 1});
  const std::vector<std::vector<wl::ServingOp>> parallel =
      runner.map(4, [&](const exec::JobContext&) {
        return wl::generate_ops(spec, serving.duration_ps, 11);
      });
  const std::vector<wl::ServingOp> serial =
      wl::generate_ops(spec, serving.duration_ps, 11);
  ASSERT_GT(serial.size(), 300u);
  for (const std::vector<wl::ServingOp>& ops : parallel) {
    ASSERT_EQ(ops.size(), serial.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(ops[i].arrival_ps, serial[i].arrival_ps) << i;
      ASSERT_EQ(ops[i].addr, serial[i].addr) << i;
      ASSERT_EQ(ops[i].bytes, serial[i].bytes) << i;
      ASSERT_EQ(ops[i].dir, serial[i].dir) << i;
    }
  }
}

// --------------------------------------------------------------------------
// The headline defense: SLO lost unregulated, restored by the QoS stack
// --------------------------------------------------------------------------

struct DefenseOutcome {
  double attainment = 0.0;
  sim::TimePs p99_ps = 0;
};

DefenseOutcome run_defense(bool regulated) {
  const wl::ServingSpec serving =
      scenario::kv_serving(200e3, 10 * sim::kPsPerMs);
  scenario::Spec spec;
  spec.serving = &serving;
  // Hungry bulk masters on the other three HP ports.
  spec.aggressors = scenario::bulk_masters(3);
  scenario::Observers obs;
  if (regulated) {
    spec.scheme = scenario::Scheme::kAdaptive;
    spec.regulated_ports = scenario::first_ports(3);
    spec.adaptive.latency_target_ps = 2 * sim::kPsPerUs;
    spec.adaptive.period_ps = 100 * sim::kPsPerUs;
    spec.adaptive.increase_bps = 200e6;
    obs.blame_window_ps = 100 * sim::kPsPerUs;
    obs.sla.max_p99_latency_ps = serving.tenants[0].slo_ps;
  }
  scenario::Scenario s = scenario::build(spec, obs, 1);
  s.chip->run_until(serving.duration_ps);
  s.chip->run_until_serving_drained(s.chip->now() + 10 * sim::kPsPerMs);

  const wl::ServingTenant& lc = s.chip->serving_tenant(0);
  DefenseOutcome out;
  out.attainment = lc.slo_attainment();
  out.p99_ps = lc.latency().p99();
  return out;
}

TEST(ServingDefense, RegulatorStackRestoresSloAttainment) {
  const DefenseOutcome unregulated = run_defense(false);
  const DefenseOutcome regulated = run_defense(true);

  // Unregulated: the bulk masters push the tenant's request p99 through
  // the 3 us SLO and attainment collapses.
  EXPECT_GT(unregulated.p99_ps, 3 * sim::kPsPerUs);
  EXPECT_LT(unregulated.attainment, 0.90);

  // Regulated (regulator + SLA watchdog + adaptive controller): the
  // committed acceptance bar is attainment >= 99%.
  EXPECT_GE(regulated.attainment, 0.99);
  EXPECT_LT(regulated.p99_ps, unregulated.p99_ps);
}

}  // namespace
}  // namespace fgqos

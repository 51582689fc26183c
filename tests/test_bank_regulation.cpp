// Per-bank accounting and regulation: kBankPartitioned decoding, the
// capacity-alias out-of-range detector (count + strict mode), the
// bank-keyed Regulator gate (per-bank exhaustion, mid-window
// reconfiguration discipline, journal records), the BankBudgetSpec JSON
// schema, the
// attribution bank dimension, and the per-window conservation property
// (sum over banks == port aggregate, both mapping policies, with a fault
// plan active). Pinned regressions for the serving zero-sample and
// missing-quantile report bugfixes live here too.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dram/address_mapper.hpp"
#include "fault/fault_plan.hpp"
#include "qos/bank_budget_spec.hpp"
#include "qos/regfile.hpp"
#include "qos/regulator.hpp"
#include "soc/soc.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/report.hpp"
#include "util/config_error.hpp"
#include "workload/serving.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// AddressMapper: kBankPartitioned + capacity-alias OOB detection
// --------------------------------------------------------------------------

TEST(MappingPolicy, NamesRoundTrip) {
  using dram::MappingPolicy;
  for (const MappingPolicy p :
       {MappingPolicy::kRowBankColumn, MappingPolicy::kBankInterleaved,
        MappingPolicy::kBankPartitioned}) {
    EXPECT_EQ(dram::mapping_policy_from_name(dram::mapping_policy_name(p)),
              p);
  }
  EXPECT_THROW(static_cast<void>(dram::mapping_policy_from_name("bank_striped")),
               ConfigError);
}

TEST(AddressMapper, BankPartitionedSlicesAreContiguous) {
  dram::TimingConfig t;  // 2 GiB / 16 banks -> 128 MiB per bank slice
  const std::uint64_t slice = t.capacity_bytes / t.banks;
  dram::AddressMapper m(t, dram::MappingPolicy::kBankPartitioned);
  EXPECT_EQ(m.decode(0).bank, 0u);
  EXPECT_EQ(m.decode(slice - t.burst_bytes).bank, 0u);
  EXPECT_EQ(m.decode(slice).bank, 1u);
  EXPECT_EQ(m.decode(5 * slice + 12345).bank, 5u);
  EXPECT_EQ(m.decode(t.capacity_bytes - t.burst_bytes).bank, 15u);
  // Within a slice, bursts fill a row before moving to the next one.
  const dram::Decoded d0 = m.decode(slice);
  const dram::Decoded d1 = m.decode(slice + t.burst_bytes);
  const dram::Decoded d2 = m.decode(slice + t.row_bytes);
  EXPECT_EQ(d0.row, 0u);
  EXPECT_EQ(d0.column, 0u);
  EXPECT_EQ(d1.column, 1u);
  EXPECT_EQ(d2.row, 1u);
  EXPECT_EQ(d2.column, 0u);
}

TEST(AddressMapper, CountsCapacityAliasesAsOutOfRange) {
  dram::TimingConfig t;
  dram::AddressMapper m(t, dram::MappingPolicy::kBankInterleaved);
  const axi::Addr a = 0x4000;
  const std::uint32_t low_bank = m.decode(a).bank;
  EXPECT_EQ(m.decode(a + t.capacity_bytes).bank, low_bank);  // wraps
  EXPECT_EQ(m.oob_decodes(), 1u);  // window 1 aliased window 0's region
  // The aliasing window now owns the region: repeating it is not a fresh
  // conflict, but window 0 coming back is.
  static_cast<void>(m.decode(a + t.capacity_bytes));
  EXPECT_EQ(m.oob_decodes(), 1u);
  static_cast<void>(m.decode(a));
  EXPECT_EQ(m.oob_decodes(), 2u);
  // First touch of a *different* region from a high window is fine.
  static_cast<void>(m.decode(3 * t.capacity_bytes + 5 * t.row_bytes));
  EXPECT_EQ(m.oob_decodes(), 2u);
}

TEST(AddressMapper, StrictModeThrowsOnAlias) {
  dram::TimingConfig t;
  dram::AddressMapper m(t, dram::MappingPolicy::kBankInterleaved,
                        /*strict=*/true);
  static_cast<void>(m.decode(0x1000));
  EXPECT_THROW(static_cast<void>(m.decode(0x1000 + t.capacity_bytes)),
               ConfigError);
}

// --------------------------------------------------------------------------
// BankRegulator: qos::Regulator keyed by DRAM bank
// --------------------------------------------------------------------------

/// Synthetic line request bound for \p addr.
class BankLineFactory {
 public:
  axi::LineRequest make(axi::Addr addr, std::uint32_t bytes,
                        bool is_write = false) {
    auto txn = std::make_unique<axi::Transaction>();
    txn->master = 1;
    txn->dir = is_write ? axi::Dir::kWrite : axi::Dir::kRead;
    txn->bytes = bytes;
    axi::LineRequest l;
    l.txn = txn.get();
    l.addr = addr;
    l.bytes = bytes;
    l.is_write = is_write;
    txns_.push_back(std::move(txn));
    return l;
  }

 private:
  std::vector<std::unique_ptr<axi::Transaction>> txns_;
};

/// Bank-keyed regulator config: bank 0 limited, the rest free.
qos::RegulatorConfig two_bank_cfg(std::uint64_t bank0_budget) {
  qos::RegulatorConfig rc;
  rc.window_ps = 1000;
  rc.bank_budget_bytes = {bank0_budget};
  return rc;
}

/// Partitioned mapping: bank k lives at k * 128 MiB.
dram::AddressMapper partitioned(const dram::TimingConfig& t) {
  return dram::AddressMapper(t, dram::MappingPolicy::kBankPartitioned);
}

TEST(BankRegulator, GatesOnlyTheExhaustedBank) {
  sim::Simulator s;
  dram::TimingConfig t;
  const std::uint64_t slice = t.capacity_bytes / t.banks;
  qos::Regulator reg(s, two_bank_cfg(128), partitioned(t));
  BankLineFactory lf;
  const auto bank0 = lf.make(0, 64);
  const auto bank1 = lf.make(slice, 64);
  EXPECT_EQ(reg.decode_bank(0), 0u);
  EXPECT_EQ(reg.decode_bank(slice), 1u);
  EXPECT_TRUE(reg.allow(bank0, 0));
  reg.on_grant(bank0, 0);
  reg.on_grant(bank0, 0);  // 128 spent
  EXPECT_FALSE(reg.allow(bank0, 0));
  EXPECT_TRUE(reg.exhausted(0));
  EXPECT_TRUE(reg.allow(bank1, 0));  // unregulated bank is untouched
  reg.on_grant(bank1, 0);
  EXPECT_TRUE(reg.allow(bank1, 0));
  EXPECT_EQ(reg.bank_stats(0).regulated_bytes, 128u);
  EXPECT_EQ(reg.bank_stats(1).regulated_bytes, 0u);
  s.run_until(1500);  // one replenish at t=1000
  EXPECT_TRUE(reg.allow(bank0, s.now()));
  EXPECT_FALSE(reg.exhausted(0));
  EXPECT_EQ(reg.bank_stats(0).exhausted_windows, 1u);
  EXPECT_EQ(reg.bank_stats(0).throttled_ps, 1000u);
  EXPECT_EQ(reg.stats().exhausted_windows, 1u);
  EXPECT_EQ(reg.stats().regulated_bytes, 128u);
}

TEST(BankRegulator, MidWindowReconfigClosesThrottleAtTheEdge) {
  sim::Simulator s;
  dram::TimingConfig t;
  qos::Regulator reg(s, two_bank_cfg(64), partitioned(t));
  BankLineFactory lf;
  reg.on_grant(lf.make(0, 64), 0);  // exhausts bank 0 at t=0
  EXPECT_TRUE(reg.exhausted(0));
  s.run_until(500);
  // Reprogramming mid-window: the running interval closes at the edge; the
  // bank is still out of credit, so a fresh interval opens but the window
  // is not double-counted.
  reg.set_bank_budget(0, 32);
  EXPECT_EQ(reg.bank_stats(0).throttled_ps, 500u);
  EXPECT_TRUE(reg.exhausted(0));
  EXPECT_EQ(reg.bank_stats(0).exhausted_windows, 1u);
  s.run_until(1500);  // replenish at t=1000 closes the second interval
  EXPECT_EQ(reg.bank_stats(0).throttled_ps, 1000u);
  EXPECT_FALSE(reg.exhausted(0));
  EXPECT_TRUE(reg.allow(lf.make(0, 64), s.now()));
}

TEST(BankRegulator, ZeroBudgetLiftsRegulation) {
  sim::Simulator s;
  dram::TimingConfig t;
  qos::Regulator reg(s, two_bank_cfg(64), partitioned(t));
  BankLineFactory lf;
  reg.on_grant(lf.make(0, 64), 0);
  EXPECT_FALSE(reg.allow(lf.make(0, 64), 0));
  reg.set_bank_budget(0, 0);  // host lifts the clamp entirely
  EXPECT_FALSE(reg.bank_limited(0));
  EXPECT_FALSE(reg.exhausted(0));
  EXPECT_TRUE(reg.allow(lf.make(0, 64), 0));
}

TEST(BankRegulator, DisabledIsTransparentAndJournalRecordsWrites) {
  sim::Simulator s;
  dram::TimingConfig t;
  qos::Regulator reg(s, two_bank_cfg(64), partitioned(t));
  telemetry::DecisionJournal journal;
  reg.set_journal(&journal);
  BankLineFactory lf;
  reg.on_grant(lf.make(0, 64), 0);
  EXPECT_FALSE(reg.allow(lf.make(0, 64), 0));
  reg.set_enabled(false);
  EXPECT_TRUE(reg.allow(lf.make(0, 64), 0));
  reg.set_bank_budget(3, 256);
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.entries()[0].action, "set_enabled");
  EXPECT_EQ(journal.entries()[1].action, "set_bank_budget");
  EXPECT_EQ(journal.entries()[1].detail, "bank=3");
  EXPECT_EQ(journal.entries()[1].cause, "host_write");
}

// --------------------------------------------------------------------------
// BankBudgetSpec
// --------------------------------------------------------------------------

constexpr const char* kSpecJson = R"({
  "window_us": 10,
  "kind": "token_bucket",
  "max_accumulation_windows": 4,
  "ports": [
    {"port": 0, "default_mbps": 100, "banks": {"1": 50, "2": 0}},
    {"port": 2}
  ]})";

TEST(BankBudgetSpec, ParsesAndComputesBudgets) {
  const qos::BankBudgetSpec spec = qos::BankBudgetSpec::from_json(kSpecJson);
  EXPECT_EQ(spec.window_ps, 10 * sim::kPsPerUs);
  EXPECT_EQ(spec.kind, qos::ReplenishKind::kTokenBucket);
  EXPECT_EQ(spec.max_accumulation_windows, 4u);
  ASSERT_EQ(spec.ports.size(), 2u);
  const std::vector<std::uint64_t> budgets =
      spec.budgets_for(spec.ports[0], 4);
  // 100 MB/s over a 10 us window = 1000 bytes; bank 1 halved, bank 2
  // explicitly deregulated.
  EXPECT_EQ(budgets, (std::vector<std::uint64_t>{1000, 500, 0, 1000}));
  EXPECT_EQ(spec.budgets_for(spec.ports[1], 4),
            (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(BankBudgetSpec, RoundTripsThroughJson) {
  const qos::BankBudgetSpec spec = qos::BankBudgetSpec::from_json(kSpecJson);
  EXPECT_EQ(qos::BankBudgetSpec::from_json(spec.to_json()).to_json(),
            spec.to_json());
}

TEST(BankBudgetSpec, RejectsMalformedDocuments) {
  using qos::BankBudgetSpec;
  EXPECT_THROW(BankBudgetSpec::from_json(R"({"ports": [], "typo": 1})"),
               ConfigError);
  EXPECT_THROW(
      BankBudgetSpec::from_json(R"({"ports": [{"port": 0, "bank": {}}]})"),
      ConfigError);
  EXPECT_THROW(BankBudgetSpec::from_json(
                   R"({"ports": [{"port": 1}, {"port": 1}]})"),
               ConfigError);
  EXPECT_THROW(BankBudgetSpec::from_json(
                   R"({"ports": [{"port": 0, "banks": {"x": 5}}]})"),
               ConfigError);
  EXPECT_THROW(BankBudgetSpec::from_json(R"({"kind": "bursty", "ports": []})"),
               ConfigError);
  const BankBudgetSpec spec = BankBudgetSpec::from_json(
      R"({"ports": [{"port": 0, "banks": {"9": 5}}]})");
  EXPECT_THROW(spec.budgets_for(spec.ports[0], 4), ConfigError);  // bank 9/4
}

TEST(BankBudgetSpec, SocAppliesPerPortRegulators) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  const qos::BankBudgetSpec spec = qos::BankBudgetSpec::from_json(kSpecJson);
  EXPECT_EQ(chip.apply_bank_budgets(spec), 2u);
  ASSERT_NE(chip.bank_regulator(1), nullptr);  // HP port 0 = master 1
  ASSERT_NE(chip.bank_regulator(3), nullptr);  // HP port 2 = master 3
  EXPECT_EQ(chip.bank_regulator(0), nullptr);  // CPU port untouched
  EXPECT_EQ(chip.bank_regulator(2), nullptr);
  const qos::Regulator& reg = *chip.bank_regulator(1);
  EXPECT_EQ(reg.config().window_ps, 10 * sim::kPsPerUs);
  EXPECT_TRUE(reg.bank_limited(0));
  EXPECT_FALSE(reg.bank_limited(2));  // "2": 0 deregulates
  EXPECT_EQ(reg.config().bank_budget_bytes[1], 500u);
  // A spec port beyond the platform's HP ports is a configuration error.
  const qos::BankBudgetSpec wide =
      qos::BankBudgetSpec::from_json(R"({"ports": [{"port": 63}]})");
  EXPECT_THROW(chip.apply_bank_budgets(wide), ConfigError);
}

// --------------------------------------------------------------------------
// Attribution bank dimension
// --------------------------------------------------------------------------

TEST(AttributionBank, ChargesCarryTheBankCell) {
  telemetry::MetricsRegistry reg;
  telemetry::AttributionEngine eng(reg, sim::kPsPerMs);
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");
  eng.enable_bank_dimension(4);
  ASSERT_TRUE(eng.bank_dimension_enabled());

  axi::Transaction txn;
  telemetry::WaitState w;
  eng.begin_wait(w, 0);
  eng.charge(w, 0, 1, telemetry::Cause::kDramBankConflict, 100, &txn,
             /*bank=*/2);
  eng.end_wait(w, 0, 64, 400, &txn);  // final slice stays on bank 2
  // A second wait with no bank id must leave the bank cells untouched.
  telemetry::WaitState w2;
  eng.begin_wait(w2, 0);
  eng.charge(w2, 0, 1, telemetry::Cause::kFabricArb, 500, &txn);
  eng.end_wait(w2, 0, 0, 600, &txn);
  eng.finish(1000);

  const telemetry::AttributionEngine::Cell& cell =
      eng.bank_total(0, 2, telemetry::Cause::kDramBankConflict);
  EXPECT_EQ(cell.stall_ps, 400u);
  EXPECT_EQ(cell.bytes, 64u);
  EXPECT_EQ(eng.bank_stall_ps(0, 2), 400u);
  EXPECT_EQ(eng.bank_stall_ps(0, 0), 0u);

  std::ostringstream csv;
  eng.write_csv(csv);
  EXPECT_NE(csv.str().find("bank_total"), std::string::npos);
  EXPECT_NE(csv.str().find("bank2"), std::string::npos);
  std::ostringstream json;
  eng.write_json(json);
  EXPECT_NE(json.str().find("\"banks\":4"), std::string::npos);
}

TEST(AttributionBank, DisabledDimensionKeepsExportsByteIdentical) {
  telemetry::MetricsRegistry reg;
  telemetry::AttributionEngine eng(reg, sim::kPsPerMs);
  eng.register_master(0, "cpu");
  eng.register_master(1, "hp0");
  axi::Transaction txn;
  telemetry::WaitState w;
  eng.begin_wait(w, 0);
  // Bank ids flow in from the controller either way; without the
  // dimension enabled they must not surface anywhere in the exports.
  eng.charge(w, 0, 1, telemetry::Cause::kDramBankConflict, 100, &txn, 2);
  eng.end_wait(w, 0, 64, 400, &txn);
  eng.finish(1000);
  std::ostringstream csv;
  eng.write_csv(csv);
  EXPECT_EQ(csv.str().find("bank_total"), std::string::npos);
  std::ostringstream json;
  eng.write_json(json);
  EXPECT_EQ(json.str().find("\"banks\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Per-bank conservation property
// --------------------------------------------------------------------------

/// Drives a faulted two-aggressor platform with per-bank telemetry and
/// checks, window by window, that the per-bank series sum exactly to the
/// per-port series — and at end of run that the controller's bank
/// counters sum to its per-master counters.
void run_conservation(dram::MappingPolicy policy) {
  soc::SocConfig cfg;
  cfg.dram.mapping = policy;
  cfg.bank_telemetry = true;
  soc::Soc chip(cfg);

  for (std::size_t i = 0; i < 2; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.pattern = (i & 1) != 0 ? wl::Pattern::kRandomRead
                              : wl::Pattern::kSeqWrite;
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = 7 + i;
    chip.add_traffic_gen(i, tg);
  }
  // Conservation must hold under error/stall injection too: dropped or
  // delayed lines either reach a bank or do not reach the controller.
  chip.arm_faults(fault::FaultPlan::from_json(R"({
    "seed": 5,
    "faults": [
      {"kind": "axi_slverr", "target": 1, "prob": 0.05},
      {"kind": "port_stall", "target": 2, "period_us": 200,
       "duration_us": 20}
    ]})"),
                  /*run_seed=*/5);
  telemetry::TimeSeriesConfig tc;
  tc.window_ps = 100 * sim::kPsPerUs;
  tc.filter = "dram.*";
  chip.enable_timeseries(std::move(tc));
  chip.run_for(2 * sim::kPsPerMs);
  chip.finish_telemetry();

  // Index the registered series: per-port aggregates and per-bank cells.
  telemetry::TimeSeriesRecorder& ts = *chip.timeseries();
  std::map<std::string, std::size_t> port_series;          // port -> idx
  std::map<std::string, std::vector<std::size_t>> bank_series;
  for (std::size_t i = 0; i < ts.series_count(); ++i) {
    const std::string& name = ts.series_names()[i];
    if (name.rfind("dram.port.", 0) == 0) {
      port_series[name.substr(10, name.size() - 10 - 6)] = i;  // ".bytes"
    } else if (name.rfind("dram.bank.", 0) == 0) {
      const std::size_t port_at = name.find(".port.");
      ASSERT_NE(port_at, std::string::npos);
      const std::string port =
          name.substr(port_at + 6, name.size() - (port_at + 6) - 6);
      bank_series[port].push_back(i);
    }
  }
  ASSERT_GE(port_series.size(), 3u);  // cpu + 2 HP ports carried traffic
  ASSERT_EQ(bank_series["hp0"].size(), cfg.dram.timing.banks);

  bool saw_traffic = false;
  for (const auto& [port, agg_idx] : port_series) {
    const std::vector<telemetry::TimeSeriesRecorder::Sample> agg =
        ts.samples(agg_idx);
    std::vector<double> bank_sum(agg.size(), 0.0);
    for (const std::size_t bi : bank_series[port]) {
      const auto bank = ts.samples(bi);
      ASSERT_EQ(bank.size(), agg.size());
      for (std::size_t wdx = 0; wdx < bank.size(); ++wdx) {
        bank_sum[wdx] += bank[wdx].value;
      }
    }
    for (std::size_t wdx = 0; wdx < agg.size(); ++wdx) {
      ASSERT_DOUBLE_EQ(bank_sum[wdx], agg[wdx].value)
          << port << " window " << wdx;
      saw_traffic = saw_traffic || agg[wdx].value > 0;
    }
  }
  EXPECT_TRUE(saw_traffic);

  // End-of-run controller counters tell the same story.
  const dram::Controller& ddr = chip.dram();
  for (axi::MasterId m = 0; m < 1 + cfg.accel_ports; ++m) {
    std::uint64_t total = 0;
    for (std::uint32_t b = 0; b < cfg.dram.timing.banks; ++b) {
      total += ddr.bank_bytes(m, b);
    }
    EXPECT_EQ(total, ddr.master_bytes(m)) << "master " << m;
  }
  EXPECT_EQ(chip.collect_metrics().scalar("dram.oob_decodes"), 0.0);
}

TEST(BankConservation, HoldsUnderInterleavedMappingWithFaults) {
  run_conservation(dram::MappingPolicy::kBankInterleaved);
}

TEST(BankConservation, HoldsUnderPartitionedMappingWithFaults) {
  run_conservation(dram::MappingPolicy::kBankPartitioned);
}

// --------------------------------------------------------------------------
// Pinned regression: serving zero-sample attainment (satellite bugfix)
// --------------------------------------------------------------------------

TEST(ServingZeroSample, AttainmentIsUnavailableNotFabricated) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  wl::ServingSpec spec;
  spec.duration_ps = sim::kPsPerMs;
  wl::ServingTenantSpec t;
  t.name = "lc";
  t.port = 0;
  t.start_ps = 50 * sim::kPsPerMs;  // arrivals begin long after the run
  spec.tenants.push_back(t);
  chip.add_serving(spec, /*run_seed=*/1);
  chip.run_for(sim::kPsPerMs);
  wl::ServingTenant& lc = chip.serving_tenant(0);

  EXPECT_EQ(lc.finished(), 0u);
  EXPECT_FALSE(lc.slo_attainment_available());
  const double a = lc.slo_attainment();
  EXPECT_EQ(a, a);      // total function: never NaN
  EXPECT_EQ(a, 1.0);    // pinned, carries no information
  EXPECT_EQ(wl::attainment_pct_cell(lc), "n/a");
  EXPECT_EQ(wl::attainment_pct_cell(lc, 2), "n/a");
  // The gauge must not be published while unavailable.
  telemetry::MetricsRegistry& metrics = chip.collect_metrics();
  EXPECT_FALSE(metrics.contains("serving.lc.slo_attainment_pct"));
}

// --------------------------------------------------------------------------
// Pinned regression: report renders absent quantiles as n/a, never 0
// --------------------------------------------------------------------------

std::string quantile_free_metrics_json(int seed) {
  std::ostringstream os;
  os << "{\"manifest\":{\"schema_version\":1,\"tool\":\"fgqos_sim\","
     << "\"scenario\":\"preset=test\",\"seed\":" << seed
     << ",\"fault_spec_hash\":\"\",\"build\":\"release\"},"
     << "\"time_ps\":1000000000,\"metrics\":{"
     << "\"port.cpu.bytes\":{\"type\":\"counter\",\"value\":1000000},"
     // count > 0 but no p50/p99/p999 keys: a truncated or foreign export.
     << "\"port.cpu.hop.total_ps\":{\"type\":\"histogram\",\"count\":10}}}";
  return os.str();
}

TEST(ReportQuantiles, MissingHistogramQuantilesRenderUnavailable) {
  const std::string pa = "/tmp/fgqos_bankpr_a.json";
  const std::string pb = "/tmp/fgqos_bankpr_b.json";
  {
    std::ofstream(pa) << quantile_free_metrics_json(1);
    std::ofstream(pb) << quantile_free_metrics_json(1);
  }
  telemetry::RunData a;
  a.label = "A";
  a.load_metrics_json(pa);
  telemetry::RunData b;
  b.label = "B";
  b.load_metrics_json(pb);
  EXPECT_FALSE(a.metrics.at("port.cpu.hop.total_ps").has_quantiles);

  const telemetry::RunReport rep =
      telemetry::compare_runs(a, b, telemetry::ReportThresholds{});
  ASSERT_EQ(rep.tenant_deltas.size(), 4u);  // 3 n/a latencies + bandwidth
  for (const telemetry::TenantDelta& d : rep.tenant_deltas) {
    if (d.metric == "bandwidth_bps") {
      EXPECT_TRUE(d.available);
      continue;
    }
    EXPECT_FALSE(d.available) << d.metric;
    EXPECT_FALSE(d.regression) << d.metric;  // n/a never gates
  }
  EXPECT_TRUE(rep.pass());

  std::ostringstream text;
  rep.write_text(text);
  EXPECT_NE(text.str().find("n/a"), std::string::npos);
  EXPECT_EQ(text.str().find("p999_ps             0"), std::string::npos);
  std::ostringstream json;
  rep.write_json(json);
  EXPECT_NE(json.str().find("\"a\":null,\"b\":null"), std::string::npos);

  // The single-run summary takes the same path.
  const telemetry::RunReport sum = telemetry::summarize_run(a);
  bool saw_unavailable = false;
  for (const telemetry::TenantDelta& d : sum.tenant_deltas) {
    saw_unavailable = saw_unavailable || !d.available;
  }
  EXPECT_TRUE(saw_unavailable);
}

}  // namespace
}  // namespace fgqos

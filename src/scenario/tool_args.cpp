#include "scenario/tool_args.hpp"

#include "dram/address_mapper.hpp"
#include "util/config_error.hpp"

namespace fgqos::scenario {

namespace {

Scheme tool_scheme(const std::string& name) {
  if (name == "none") return Scheme::kNone;
  if (name == "hw") return Scheme::kHw;
  if (name == "sw") return Scheme::kSw;
  throw ConfigError("unknown scheme '" + name + "'");
}

}  // namespace

Spec ToolArgs::spec(soc::SocConfig platform) const {
  Spec s;
  s.platform = std::move(platform);
  // Both land before the Soc exists: the controller's address mapper and
  // the telemetry gating are fixed at construction.
  if (!mapping.empty()) {
    s.platform.dram.mapping = dram::mapping_policy_from_name(mapping);
  }
  if (bank_telemetry) {
    s.platform.bank_telemetry = true;
  }
  s.scheme = tool_scheme(scheme);
  s.budget_bps = budget_mbps * 1e6;
  s.window_ps = static_cast<sim::TimePs>(window_us * 1e6);
  s.bank_budgets = bank_budgets ? &*bank_budgets : nullptr;
  s.serving = serving ? &*serving : nullptr;
  s.faults = faults ? &*faults : nullptr;
  s.envelope = envelope ? &*envelope : nullptr;
  return s;
}

telemetry::RunManifest ToolArgs::manifest(const std::string& tool,
                                          std::uint64_t run_seed,
                                          std::string scenario) const {
  telemetry::RunManifest m;
  m.tool = tool;
  m.seed = run_seed;
  m.scenario = std::move(scenario);
  m.build = telemetry::RunManifest::build_flavor();
  if (observers.profile) {
    m.profile_tag_table_version = telemetry::kProfilerTagTableVersion;
  }
  if (faults) {
    m.fault_spec_hash = telemetry::fnv1a_hex(faults->to_json());
  }
  return m;
}

ToolArgs parse_tool_args(const util::ArgParser& args,
                         std::size_t default_aggressors,
                         const std::string& default_scheme) {
  ToolArgs t;
  t.scheme = args.get("scheme", default_scheme);
  static_cast<void>(tool_scheme(t.scheme));
  t.aggressors = args.get_count("aggressors", default_aggressors);
  t.budget_mbps = args.get_double("budget-mbps", 400);
  t.window_us = args.get_double("window-us", 1);
  t.seed = static_cast<std::uint64_t>(args.get_int("seed", 100));
  t.mapping = args.get("mapping", "");
  if (!t.mapping.empty()) {
    // Fail fast on a bad name, before any scenario is built.
    static_cast<void>(dram::mapping_policy_from_name(t.mapping));
  }
  t.bank_telemetry = args.has("bank-telemetry");
  t.aggressor_footprint_mb = args.get_double("aggressor-footprint-mb", 16);
  config_check(t.aggressor_footprint_mb > 0,
               "--aggressor-footprint-mb must be positive");

  if (const std::string p = args.get("fault-spec"); !p.empty()) {
    t.faults = fault::FaultPlan::from_file(p);
  }
  if (const std::string p = args.get("serving-spec"); !p.empty()) {
    t.serving = wl::ServingSpec::from_file(p);
  }
  if (const std::string p = args.get("bank-budget-spec"); !p.empty()) {
    t.bank_budgets = qos::BankBudgetSpec::load(p);
  }
  if (const std::string p = args.get("envelope-spec"); !p.empty()) {
    config_check(t.scheme == "hw", "--envelope-spec requires --scheme hw");
    t.envelope = qos::CertifiedEnvelope::from_file(p);
  }

  Exports& e = t.exports;
  e.metrics_json = args.get("metrics-json");
  e.metrics_csv = args.get("metrics-csv");
  e.timeseries_csv = args.get("timeseries-csv");
  e.timeseries_json = args.get("timeseries-json");
  e.journal = args.get("journal");
  e.blame_csv = args.get("blame-csv");
  e.blame_json = args.get("blame-json");
  e.profile_json = args.get("profile-json");
  e.profile_folded = args.get("profile-folded");

  Observers& o = t.observers;
  o.trace_path = args.get("trace");
  o.trace_filter = args.get("trace-filter");
  config_check(!o.trace_path.empty() || o.trace_filter.empty(),
               "--trace-filter requires --trace");
  o.lifecycle_metrics = !e.metrics_json.empty() || !e.metrics_csv.empty();
  const double blame_window_us = args.get_double("blame-window-us", 100);
  if (!e.blame_csv.empty() || !e.blame_json.empty()) {
    o.blame_window_ps = static_cast<sim::TimePs>(blame_window_us * 1e6);
  }
  const std::string ts_filter = args.get("timeseries-filter");
  const double ts_window_us = args.get_double("timeseries-window-us", 100);
  if (!e.timeseries_csv.empty() || !e.timeseries_json.empty()) {
    telemetry::TimeSeriesConfig tc;
    tc.window_ps = static_cast<sim::TimePs>(ts_window_us * 1e6);
    tc.filter = ts_filter;
    o.timeseries = tc;
  } else {
    config_check(ts_filter.empty() && !args.has("timeseries-window-us"),
                 "--timeseries-filter/--timeseries-window-us require "
                 "--timeseries-csv or --timeseries-json");
  }
  o.journal = e.journal.empty() ? Journal::kOff : Journal::kRun;
  o.profile = args.has("profile") || !e.profile_json.empty() ||
              !e.profile_folded.empty();
  return t;
}

}  // namespace fgqos::scenario

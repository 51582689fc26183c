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
                         const std::string& default_scheme, bool sla) {
  ToolArgs t;
  t.scheme = args.get("scheme", default_scheme);
  static_cast<void>(tool_scheme(t.scheme));
  t.aggressors = args.get_count("aggressors", default_aggressors);
  t.budget_mbps = args.get_double("budget-mbps", 400);
  t.window_us = args.get_positive("window-us", 1);
  t.seed = args.get_count("seed", 100);
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

  t.out = args.get("out");
  Observers& o = t.observers;
  const auto observer = [&](const char* flag) {
    const bool on = args.has(flag);
    config_check(!on || !t.out.empty(),
                 std::string("--") + flag + " requires --out");
    return on;
  };
  const auto tuning = [&](const char* flag, bool observer_on,
                          const char* needs) {
    config_check(observer_on || !args.has(flag),
                 std::string("--") + flag + " requires " + needs);
  };
  o.lifecycle_metrics = !t.out.empty();
  if (observer("trace")) {
    o.trace_path = t.out + "/trace.json";
  }
  tuning("trace-filter", !o.trace_path.empty(), "--trace");
  o.trace_filter = args.get("trace-filter");

  if (sla) {
    o.sla.min_bandwidth_mbps = args.get_double("sla-min-mbps", 0);
    o.sla.max_p99_latency_ps =
        static_cast<sim::TimePs>(args.get_double("sla-p99-us", 0) * 1e6);
    o.sla.max_interference_fraction = args.get_double("sla-stall-frac", 0);
  }
  const bool attribution = observer("blame") || sla_active(o.sla);
  tuning("blame-window-us", attribution,
         sla ? "--blame or an --sla-* bound" : "--blame");
  if (attribution) {
    o.blame_window_ps = static_cast<sim::TimePs>(
        args.get_positive("blame-window-us", 100) * 1e6);
  }

  const bool timeseries = observer("timeseries");
  tuning("timeseries-filter", timeseries, "--timeseries");
  tuning("timeseries-window-us", timeseries, "--timeseries");
  if (timeseries) {
    telemetry::TimeSeriesConfig tc;
    tc.window_ps = static_cast<sim::TimePs>(
        args.get_positive("timeseries-window-us", 100) * 1e6);
    tc.filter = args.get("timeseries-filter");
    o.timeseries = tc;
  }
  o.journal = observer("journal") ? Journal::kRun : Journal::kOff;
  o.profile = observer("profile");
  return t;
}

}  // namespace fgqos::scenario

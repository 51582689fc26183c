/// \file tool_args.hpp
/// \brief The command-line options fgqos_sim and fgqos_sweep share, parsed
///        and checked in one place.
#pragma once

#include <optional>
#include <string>

#include "fault/fault_plan.hpp"
#include "qos/bank_budget_spec.hpp"
#include "qos/envelope.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/manifest.hpp"
#include "util/cli.hpp"
#include "workload/serving.hpp"

namespace fgqos::scenario {

/// Shared options: --scheme --aggressors --budget-mbps --window-us --seed
/// --mapping --bank-telemetry --aggressor-footprint-mb, the spec files
/// (--fault-spec --serving-spec --bank-budget-spec --envelope-spec), the
/// run bundle (--out DIR), the observer switches that fill it (--trace
/// --blame --timeseries --journal --profile) and their tuning flags
/// (--trace-filter --blame-window-us --timeseries-filter
/// --timeseries-window-us).
struct ToolArgs {
  std::string scheme;  ///< none | hw | sw
  std::size_t aggressors = 0;
  double budget_mbps = 0;
  double window_us = 0;
  std::uint64_t seed = 0;
  std::string mapping;  ///< "" = platform default
  bool bank_telemetry = false;
  double aggressor_footprint_mb = 0;
  std::optional<fault::FaultPlan> faults;
  std::optional<wl::ServingSpec> serving;
  std::optional<qos::BankBudgetSpec> bank_budgets;
  std::optional<qos::CertifiedEnvelope> envelope;
  std::string out;  ///< run-bundle directory ("" = no files)
  /// Lifecycle metrics are on with a bundle; the trace, when on, goes to
  /// out/trace.json.
  Observers observers;

  /// A Spec on \p platform carrying these choices: mapping, bank
  /// telemetry, scheme, budget, window and the loaded spec files
  /// (borrowed from this object). Aggressors and the critical task are
  /// the caller's.
  [[nodiscard]] Spec spec(soc::SocConfig platform) const;
  /// Provenance for \p tool's exports: \p scenario names the semantic
  /// inputs; the profiler table version and the fault plan's hash are
  /// stamped when those are in use.
  [[nodiscard]] telemetry::RunManifest manifest(const std::string& tool,
                                                std::uint64_t run_seed,
                                                std::string scenario) const;
};

/// " <key>=<content hash>" for a loaded spec file, "" when absent:
/// manifests name their inputs by content, not by path.
template <typename File>
[[nodiscard]] std::string hash_token(const char* key,
                                     const std::optional<File>& file) {
  return file ? std::string(" ") + key + "=" +
                    telemetry::fnv1a_hex(file->to_json())
              : std::string();
}

/// Parses and validates the shared options; the defaults of --aggressors
/// and --scheme are the tool's. With \p sla the SLA watchdog flags
/// (--sla-min-mbps --sla-p99-us --sla-stall-frac) are read too; an active
/// SLA turns attribution on without --blame. Throws ConfigError with the
/// flag named.
[[nodiscard]] ToolArgs parse_tool_args(const util::ArgParser& args,
                                       std::size_t default_aggressors,
                                       const std::string& default_scheme,
                                       bool sla = false);

}  // namespace fgqos::scenario

/// \file objective.hpp
/// \brief Victim objective evaluation for the contention search.
///
/// One evaluation = one deterministic simulation: a pointer-chase victim
/// on the CPU port, the decoded AttackConfig's generators on the HP
/// ports, optionally regulated (per-port token buckets at the certified
/// budget) and optionally composed with a fault plan so certification
/// covers degraded modes. The returned EvalResult carries every quantity
/// any of the three objectives (slowdown vs. solo, read p99, SLO-miss
/// fraction) or the envelope bounds need, so a cached evaluation never
/// has to be re-run when the consumer changes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "fault/fault_plan.hpp"
#include "scenario/scenario.hpp"
#include "search/attack_space.hpp"
#include "sim/time.hpp"

namespace fgqos::telemetry {
struct RunManifest;
}

namespace fgqos::search {

/// Which victim quantity the search maximizes.
enum class Objective : std::uint8_t {
  kSlowdown,  ///< victim mean iteration time / solo mean iteration time
  kP99,       ///< victim port read p99 latency (ps)
  kSloMiss,   ///< fraction of victim iterations exceeding slo_iter_us
};

/// Parses "slowdown" | "p99" | "slo_miss"; throws ConfigError otherwise.
[[nodiscard]] Objective objective_from_name(const std::string& name);
[[nodiscard]] const char* objective_name(Objective o);

/// Scenario parameters shared by every evaluation of one search.
struct EvalSpec {
  std::uint64_t victim_accesses = 256;   ///< pointer-chase loads / iteration
  std::uint64_t victim_iterations = 4;   ///< bounded victim run length
  double deadline_ms = 400.0;            ///< wall deadline for the sim run
  double slo_iter_us = 0.0;              ///< 0 = derive 2x solo mean
  double regulated_budget_mbps = 400.0;  ///< per-HP-port budget when regulated
  double window_us = 1.0;                ///< regulation window
  /// Optional fault plan armed in every evaluation (nullptr = none);
  /// borrowed, must outlive the spec.
  const fault::FaultPlan* faults = nullptr;
};

/// Everything one simulation measured about the victim.
struct EvalResult {
  double iter_mean_ps = 0.0;
  double iter_p99_ps = 0.0;
  double read_p99_ps = 0.0;
  double victim_bw_bps = 0.0;
  double aggressor_bps = 0.0;   ///< aggregate HP-port granted bandwidth
  double slo_miss_frac = 0.0;
  bool deadline_missed = false;
};

/// Runs one simulation of \p config (nullptr = solo victim, no
/// aggressors) with the given spec. \p sim_seed seeds the platform
/// (victim RNG, generator RNGs, fault streams); equal
/// (config, spec, sim_seed, regulated) is bit-reproducible.
/// \p slo_iter_ps resolves the SLO threshold (pass the derived value so
/// solo and attack runs agree). A non-empty \p metrics_json_path saves
/// the platform's metrics snapshot (port.* gauges/counters, stamped with
/// \p manifest) — the measured side of a bounds-vs-measured check.
/// \p obs attaches observers to the simulation (none by default), and
/// \p after_run, when set, sees the finished platform before it is torn
/// down (benches write their blame CSV there).
[[nodiscard]] EvalResult evaluate_attack(
    const AttackConfig* config, const EvalSpec& spec, std::uint64_t sim_seed,
    bool regulated, sim::TimePs slo_iter_ps,
    const std::string& metrics_json_path = "",
    const telemetry::RunManifest* manifest = nullptr,
    const scenario::Observers& obs = {},
    const std::function<void(soc::Soc&)>& after_run = nullptr);

/// Extracts the objective value from \p r (slowdown needs the solo mean).
[[nodiscard]] double objective_value(Objective o, const EvalResult& r,
                                     double solo_iter_mean_ps);

}  // namespace fgqos::search

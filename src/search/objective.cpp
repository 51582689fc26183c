#include "search/objective.hpp"

#include <string>

#include "scenario/scenario.hpp"
#include "telemetry/manifest.hpp"
#include "util/config_error.hpp"
#include "workload/cpu_workloads.hpp"

namespace fgqos::search {

Objective objective_from_name(const std::string& name) {
  if (name == "slowdown") return Objective::kSlowdown;
  if (name == "p99") return Objective::kP99;
  if (name == "slo_miss") return Objective::kSloMiss;
  throw ConfigError("unknown objective \"" + name +
                          "\" (want slowdown | p99 | slo_miss)");
}

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::kSlowdown: return "slowdown";
    case Objective::kP99: return "p99";
    case Objective::kSloMiss: return "slo_miss";
  }
  return "?";
}

EvalResult evaluate_attack(const AttackConfig* config, const EvalSpec& spec,
                           std::uint64_t sim_seed, bool regulated,
                           sim::TimePs slo_iter_ps,
                           const std::string& metrics_json_path,
                           const telemetry::RunManifest* manifest,
                           const scenario::Observers& obs,
                           const std::function<void(soc::Soc&)>& after_run) {
  scenario::Spec scn;
  wl::PointerChaseConfig chase;
  chase.name = "victim";
  chase.accesses_per_iteration = spec.victim_accesses;
  cpu::CoreConfig core_cfg;
  core_cfg.name = "victim";
  core_cfg.max_iterations = spec.victim_iterations;
  core_cfg.rng_seed = sim_seed;
  scn.critical = scenario::Critical{
      core_cfg, [chase] { return wl::make_pointer_chase(chase); }};
  if (config != nullptr) {
    scn.aggressors = AttackSpace::to_traffic_gens(*config, sim_seed);
  }
  if (regulated) {
    // Certification regulates every HP port, aggressor or not.
    scn.scheme = scenario::Scheme::kHw;
    scn.regulated_ports = scenario::first_ports(scn.platform.accel_ports);
    scn.budget_bps = spec.regulated_budget_mbps * 1e6;
    scn.window_ps = static_cast<sim::TimePs>(spec.window_us * sim::kPsPerUs);
  }
  if (spec.faults != nullptr && !spec.faults->empty()) {
    scn.faults = spec.faults;
  }
  scenario::Scenario built = scenario::build(scn, obs, sim_seed);
  soc::Soc& soc = *built.chip;
  cpu::CpuCore& core = *built.critical;

  const auto deadline =
      static_cast<sim::TimePs>(spec.deadline_ms * sim::kPsPerMs);
  const bool finished = soc.run_until_cores_finished(deadline);
  if (after_run) {
    after_run(soc);
  }

  EvalResult r;
  r.deadline_missed = !finished;
  const auto& iters = core.stats().iteration_ps;
  r.iter_mean_ps = iters.mean();
  r.iter_p99_ps = static_cast<double>(iters.p99());
  r.read_p99_ps = static_cast<double>(soc.cpu_port().stats().read_latency.p99());
  const sim::TimePs now = soc.now();
  r.victim_bw_bps = sim::bytes_per_second(
      soc.cpu_port().stats().bytes_granted.value(), now);
  std::uint64_t agg_bytes = 0;
  for (std::size_t p = 0; p < soc.accel_port_count(); ++p) {
    agg_bytes += soc.accel_port(p).stats().bytes_granted.value();
  }
  r.aggressor_bps = sim::bytes_per_second(agg_bytes, now);
  if (iters.count() > 0 && slo_iter_ps > 0) {
    std::uint64_t within = 0;
    for (const auto& pt : iters.cdf()) {
      if (pt.value <= slo_iter_ps) {
        within = pt.cumulative;
      } else {
        break;
      }
    }
    r.slo_miss_frac =
        1.0 - static_cast<double>(within) / static_cast<double>(iters.count());
  } else if (iters.count() == 0) {
    // The victim never completed an iteration inside the deadline: the
    // worst possible outcome for every objective.
    r.slo_miss_frac = 1.0;
  }
  if (!metrics_json_path.empty()) {
    soc.collect_metrics().save_json(metrics_json_path, soc.now(), manifest);
  }
  return r;
}

double objective_value(Objective o, const EvalResult& r,
                       double solo_iter_mean_ps) {
  switch (o) {
    case Objective::kSlowdown:
      return solo_iter_mean_ps > 0 ? r.iter_mean_ps / solo_iter_mean_ps : 0.0;
    case Objective::kP99:
      return r.read_p99_ps;
    case Objective::kSloMiss:
      return r.slo_miss_frac;
  }
  return 0.0;
}

}  // namespace fgqos::search

/// \file common.hpp
/// \brief Shared scenario helpers for the experiment benches.
///
/// Every bench binary reconstructs one table or figure of the paper's
/// evaluation (see DESIGN.md section 4). The helpers here describe the
/// recurring scenario — one latency-critical CPU task plus N accelerator
/// aggressors, under one of the regulation schemes being compared — as a
/// scenario::Spec for the shared builder. Every bench except
/// bench_micro_sim builds its scenarios through scenario::build and runs
/// them through the helpers below, so each honours the FGQOS_* observers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exec/scenario_runner.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/serving.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos::bench {

using scenario::Scheme;

/// The table label of \p scheme ("solo" when there are no aggressors).
inline const char* scheme_name(Scheme s, std::size_t aggressors) {
  if (aggressors == 0) {
    return "solo";
  }
  switch (s) {
    case Scheme::kNone: return "unregulated";
    case Scheme::kSw: return "memguard_sw";
    case Scheme::kHw: return "hw_qos";
    case Scheme::kPremStrict: return "prem_strict";
    case Scheme::kPrem: return "prem_tdma";
    case Scheme::kPremCmri: return "prem_cmri";
    case Scheme::kAdaptive: return "adaptive";
  }
  return "?";
}

using scenario::Scenario;

/// The standard scenario: a critical pointer chase (1024 accesses per
/// iteration, \p critical_iterations of them; 0 = no critical core) plus
/// \p aggressors saturating generators ("agg<i>", 64 MiB apart, seed
/// 100 + i) under \p scheme, which regulates each port
/// hosting an aggressor at the Spec defaults: 400 MB/s in 1 us windows,
/// SW MemGuard at 1 ms / 3 us ISR, 2 KiB CMRI budget.
inline scenario::Spec bench_spec(Scheme scheme, std::size_t aggressors,
                                 std::uint64_t critical_iterations,
                                 wl::Pattern pattern = wl::Pattern::kSeqRead) {
  scenario::Spec spec;
  if (critical_iterations > 0) {
    cpu::CoreConfig cc;
    cc.name = "critical";
    cc.max_iterations = critical_iterations;
    spec.critical = scenario::Critical{cc, [] {
      wl::PointerChaseConfig pc;
      pc.accesses_per_iteration = 1024;
      return wl::make_pointer_chase(pc);
    }};
  }
  spec.aggressors = scenario::standard_aggressors(aggressors, pattern, 100);
  spec.scheme = scheme;
  spec.regulated_ports =
      scenario::first_ports(std::min(aggressors, spec.platform.accel_ports));
  return spec;
}

/// Appends the standard FGQOS_* suffix (.1, .2, ...) for the \p seq-th
/// scenario so repeated builds do not overwrite each other's files.
inline std::string env_path(const char* path, int seq) {
  return seq > 0 ? std::string(path) + '.' + std::to_string(seq) : path;
}

/// Opt-in bench observers from the environment, for every scenario built
/// by build_scenario():
///  * FGQOS_TRACE=<path> writes a Chrome trace (FGQOS_TRACE_FILTER selects
///    categories);
///  * FGQOS_BLAME=<path> turns interference attribution on (window
///    FGQOS_BLAME_WINDOW_US, default 100) and run_critical(), run_for()
///    and run_serving() write the blame matrices there as CSV.
/// A .1, .2, ... suffix keeps repeated scenarios apart.
inline const char* env_blame_path() {
  const char* path = std::getenv("FGQOS_BLAME");
  return (path != nullptr && *path != '\0') ? path : nullptr;
}

inline scenario::Observers env_observers() {
  scenario::Observers obs;
  const char* trace = std::getenv("FGQOS_TRACE");
  if (trace != nullptr && *trace != '\0') {
    static std::atomic<int> trace_seq{0};
    obs.trace_path = env_path(trace, trace_seq.fetch_add(1));
    const char* filter = std::getenv("FGQOS_TRACE_FILTER");
    obs.trace_filter = filter != nullptr ? filter : "";
  }
  if (env_blame_path() != nullptr) {
    const char* w = std::getenv("FGQOS_BLAME_WINDOW_US");
    const double window_us = w != nullptr ? std::atof(w) : 100;
    obs.blame_window_ps = static_cast<sim::TimePs>(window_us * 1e6);
  }
  return obs;
}

inline void maybe_dump_env_blame(soc::Soc& chip) {
  const char* path = env_blame_path();
  if (path == nullptr || chip.attribution() == nullptr) {
    return;
  }
  static std::atomic<int> blame_seq{0};
  chip.attribution()->finish(chip.now());
  chip.attribution()->save_csv(env_path(path, blame_seq.fetch_add(1)));
}

/// Shared `--jobs N` handling for the bench binaries: the flag (0 = one
/// worker per hardware thread) overrides the FGQOS_JOBS environment
/// variable; the default is serial. Scenario points submitted through the
/// returned runner merge in submission order, so every bench's table and
/// CSV are byte-identical whatever the job count.
inline exec::ExecConfig bench_exec_config(int argc, char** argv) {
  exec::ExecConfig cfg;
  cfg.jobs = util::ArgParser(argc, argv).get_count("jobs",
                                                   exec::jobs_from_env(1));
  return cfg;
}

/// Prints the runner's wall-clock summary when it actually ran parallel.
inline void print_exec_summary(const exec::ScenarioRunner& runner) {
  if (runner.worker_count() > 1) {
    std::printf("\n%s\n", runner.summary().c_str());
  }
}

/// Builds \p spec with the environment's observers.
inline Scenario build_scenario(const scenario::Spec& spec) {
  return scenario::build(spec, env_observers(), 0);
}

/// Runs the scenario for \p duration_ps.
inline void run_for(Scenario& s, sim::TimePs duration_ps) {
  s.chip->run_for(duration_ps);
  maybe_dump_env_blame(*s.chip);
}

/// One point of a serving bench: the key-value tenant's outcome and the
/// bulk masters' throughput.
struct ServingRow {
  std::string scheme;
  double load_qps = 0;
  double offered_qps = 0;
  double completed_qps = 0;
  std::uint64_t dropped = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  std::string attainment_table;  ///< 2-decimal pct, or "n/a" (no samples)
  std::string attainment_csv;    ///< 4-decimal pct, or "n/a" (no samples)
  double bulk_gbps = 0;
  std::string note;
};

/// Runs a serving scenario to the end of its arrival horizon
/// \p duration_ps, lets the tenants drain for up to 10 ms more, and reads
/// the first tenant and the aggressors into a row labelled \p scheme.
inline ServingRow run_serving(Scenario& s, sim::TimePs duration_ps,
                              std::string scheme, double load_qps) {
  s.chip->run_until(duration_ps);
  s.chip->run_until_serving_drained(s.chip->now() + 10 * sim::kPsPerMs);
  maybe_dump_env_blame(*s.chip);
  const wl::ServingTenant& lc = s.chip->serving_tenant(0);
  ServingRow r;
  r.scheme = std::move(scheme);
  r.load_qps = load_qps;
  r.offered_qps = lc.offered_qps();
  r.completed_qps = lc.completed_qps();
  r.dropped = lc.stats().dropped;
  r.p50_us = static_cast<double>(lc.latency().p50()) / 1e6;
  r.p99_us = static_cast<double>(lc.latency().p99()) / 1e6;
  r.p999_us = static_cast<double>(lc.latency().p999()) / 1e6;
  r.attainment_table = wl::attainment_pct_cell(lc, 2);
  r.attainment_csv = wl::attainment_pct_cell(lc, 4);
  r.bulk_gbps = s.aggressor_bps() / 1e9;
  return r;
}

/// Runs the scenario until the critical core halts (or the deadline).
/// Returns the critical iteration mean in ps (0 when no critical core).
inline double run_critical(Scenario& s, sim::TimePs deadline) {
  if (s.critical == nullptr) {
    run_for(s, deadline);
    return 0.0;
  }
  const bool ok = s.chip->run_until_cores_finished(deadline);
  if (!ok) {
    std::fprintf(stderr,
                 "WARN: critical task missed the simulation deadline\n");
  }
  maybe_dump_env_blame(*s.chip);
  return s.critical->stats().iteration_ps.mean();
}

}  // namespace fgqos::bench

/// \file bench_serving.cpp
/// \brief SERVING — request-level QoS defense reproduction.
///
/// A latency-critical key-value serving tenant (Zipfian keys, open-loop
/// Poisson arrivals, per-request SLO) shares the memory system with
/// best-effort bulk DMA masters. Swept over offered load, three schemes:
///
///   * solo        — the serving tenant alone (attainment ceiling);
///   * unregulated — bulk masters free-running: the tenant's request p99
///                   blows through its SLO (the paper's Fig. 1 problem,
///                   restated at request level);
///   * regulated   — the paper's defense stack: hardware regulators on
///                   the bulk ports, driven by the AdaptiveQosController
///                   from a tightly-coupled latency monitor on the
///                   serving port, with the SLA watchdog auditing the
///                   tenant's objectives per blame window.
///
/// Reported per (scheme, load): offered/completed QPS, request latency
/// p50/p99/p99.9, SLO attainment, bulk throughput, and the controller /
/// watchdog activity. CSV `serving_defense.csv` feeds
/// `plot_experiments.py serving`.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

constexpr sim::TimePs kDurationPs = 20 * sim::kPsPerMs;
constexpr std::size_t kBulkCount = 3;  ///< ports 0..2; tenant owns port 3

enum class ServingScheme { kSolo, kUnregulated, kRegulated };

const char* serving_scheme_name(ServingScheme s) {
  switch (s) {
    case ServingScheme::kSolo: return "solo";
    case ServingScheme::kUnregulated: return "unregulated";
    case ServingScheme::kRegulated: return "regulated";
  }
  return "?";
}

ServingRow run_point(ServingScheme scheme, double load_qps) {
  const wl::ServingSpec serving = scenario::kv_serving(load_qps, kDurationPs);
  scenario::Spec spec;
  spec.serving = &serving;
  if (scheme != ServingScheme::kSolo) {
    spec.aggressors = scenario::bulk_masters(kBulkCount);
  }
  scenario::Observers obs = env_observers();
  if (scheme == ServingScheme::kRegulated) {
    // Defense stack: latency monitor on the serving port feeding the AIMD
    // controller over the bulk-port regulators, plus the SLA watchdog
    // auditing the tenant's request-latency objective per 100 us window.
    spec.scheme = Scheme::kAdaptive;
    spec.regulated_ports = scenario::first_ports(kBulkCount);
    spec.adaptive.latency_target_ps = 2 * sim::kPsPerUs;
    spec.adaptive.period_ps = 100 * sim::kPsPerUs;
    spec.adaptive.increase_bps = 200e6;
    obs.blame_window_ps = 100 * sim::kPsPerUs;
    obs.sla.max_p99_latency_ps = scenario::kKvSloPs;
  }
  Scenario s = scenario::build(spec, obs, /*seed=*/1);
  ServingRow r =
      run_serving(s, kDurationPs, serving_scheme_name(scheme), load_qps);
  if (s.adaptive) {
    char buf[96];
    std::snprintf(
        buf, sizeof buf, "%llu dec / %llu inc, %llu sla trips",
        static_cast<unsigned long long>(s.adaptive->stats().decreases),
        static_cast<unsigned long long>(s.adaptive->stats().increases),
        static_cast<unsigned long long>(s.sla->violations().size()));
    r.note = buf;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "SERVING: request-level QoS defense — Zipfian KV tenant vs. bulk "
      "masters\n  open-loop Poisson arrivals, SLO %.1f us, %zu bulk DMA "
      "masters, %.0f ms/point\n\n",
      static_cast<double>(scenario::kKvSloPs) / 1e6, kBulkCount,
      static_cast<double>(kDurationPs) / 1e9);

  const std::vector<double> loads = {100e3, 200e3, 300e3};
  struct Point {
    ServingScheme scheme;
    double load;
  };
  std::vector<Point> grid;
  for (const ServingScheme s :
       {ServingScheme::kSolo, ServingScheme::kUnregulated,
        ServingScheme::kRegulated}) {
    for (const double l : loads) {
      grid.push_back({s, l});
    }
  }
  exec::ScenarioRunner runner(bench_exec_config(argc, argv));
  const std::vector<ServingRow> rows =
      runner.map(grid.size(), [&](const exec::JobContext& ctx) {
        const Point& pt = grid[ctx.index];
        return run_point(pt.scheme, pt.load);
      });

  util::Table table({"scheme", "load_kqps", "completed_kqps", "dropped",
                     "p50_us", "p99_us", "p99.9_us", "attain_%", "bulk_GB/s",
                     "note"});
  for (const ServingRow& r : rows) {
    table.add_row({r.scheme, util::format_fixed(r.load_qps / 1e3, 0),
                   util::format_fixed(r.completed_qps / 1e3, 1), r.dropped,
                   util::format_fixed(r.p50_us, 2),
                   util::format_fixed(r.p99_us, 2),
                   util::format_fixed(r.p999_us, 2), r.attainment_table,
                   util::format_fixed(r.bulk_gbps, 2), r.note});
  }
  table.print();

  // The plot-friendly CSV keeps raw units (qps, us, pct).
  util::Table csv({"scheme", "load_qps", "offered_qps", "completed_qps",
                   "dropped", "p50_us", "p99_us", "p999_us", "attainment_pct",
                   "bulk_gbps"});
  for (const ServingRow& r : rows) {
    csv.add_row({r.scheme, util::format_fixed(r.load_qps, 0),
                 util::format_fixed(r.offered_qps, 2),
                 util::format_fixed(r.completed_qps, 2), r.dropped,
                 util::format_fixed(r.p50_us, 3), util::format_fixed(r.p99_us, 3),
                 util::format_fixed(r.p999_us, 3), r.attainment_csv,
                 util::format_fixed(r.bulk_gbps, 3)});
  }
  csv.save_csv("serving_defense.csv");
  std::printf(
      "\nunregulated should miss the SLO (attainment well below 99%%); the "
      "regulated\nstack should restore attainment >= 99%% while keeping "
      "bulk throughput > 0.\nCSV written to serving_defense.csv\n");
  print_exec_summary(runner);
  return 0;
}

/// \file bench_exp8_coupling_ablation.cpp
/// \brief EXP8 — Fig. 6 reconstruction: how tight does the coupling need
///        to be?
///
/// Ablates the single design choice the paper's title claims matters:
/// the regulator's observation latency. The same qos::Regulator enforces
/// the token-bucket policy with RegulatorConfig::observation_latency_ps
/// set from 0 (tightly-coupled: each grant is debited in its own cycle)
/// up to 100 us (a monitor polled across the fabric / config bus: the
/// debit lands that much later, and the gate admits on stale credit
/// meanwhile). Three saturating DMAs are each regulated to 400 MB/s in
/// 100 us windows; a latency-critical CPU task runs alongside. Reported:
/// the largest per-window overshoot (bytes granted over budget,
/// RegulatorStats::max_overshoot_bytes), the effective rate, and the
/// critical task's p99.
#include <cstdio>

#include "common.hpp"
#include "qos/regulator.hpp"

using namespace fgqos;
using namespace fgqos::bench;

int main() {
  std::printf(
      "EXP8 (Fig.6): coupling ablation — observation latency of the "
      "regulator (400 MB/s budget, 100 us window, 3 aggressors)\n\n");
  const sim::TimePs window = 100 * sim::kPsPerUs;
  const double budget_bps = 400e6;
  const std::uint64_t budget_bytes = qos::budget_for_rate(budget_bps, window);

  // Solo reference for the critical task.
  double solo_mean = 0;
  {
    Scenario s = build_scenario(bench_spec(Scheme::kNone, 0, 8));
    solo_mean = run_critical(s, 400 * sim::kPsPerMs);
  }

  util::Table table({"observation_lag", "overshoot/window", "overshoot_%",
                     "measured_rate", "crit_slowdown", "cpu_read_p99"});
  const std::vector<sim::TimePs> lags = {
      0,
      100 * sim::kPsPerNs,
      sim::kPsPerUs,
      10 * sim::kPsPerUs,
      50 * sim::kPsPerUs,
      100 * sim::kPsPerUs,
  };
  for (const sim::TimePs lag : lags) {
    // Gates attached manually below.
    Scenario s = build_scenario(bench_spec(Scheme::kNone, 3, 8));
    std::vector<std::unique_ptr<qos::Regulator>> regs;
    for (std::size_t i = 0; i < 3; ++i) {
      qos::RegulatorConfig rc;
      rc.name = "lagged" + std::to_string(i);
      rc.budget_bytes = budget_bytes;
      rc.window_ps = window;
      rc.observation_latency_ps = lag;
      regs.push_back(std::make_unique<qos::Regulator>(s.chip->sim(), rc));
      s.chip->accel_port(i).add_gate(*regs.back());
    }
    const double mean = run_critical(s, 600 * sim::kPsPerMs);
    std::uint64_t overshoot = 0;
    for (const auto& r : regs) {
      overshoot = std::max(overshoot, r->stats().max_overshoot_bytes);
    }
    const double measured = s.aggressor_bps() / 3.0;
    table.add_row(
        {lag == 0 ? std::string("0 (tight)") : util::format_time_ps(lag),
         util::format_bytes(overshoot),
         util::format_fixed(
             static_cast<double>(overshoot) /
                 static_cast<double>(budget_bytes) * 100.0, 1),
         util::format_bandwidth(measured),
         util::format_fixed(mean / solo_mean, 2) + "x",
         util::format_time_ps(
             s.chip->cpu_port().stats().read_latency.p99())});
  }
  table.print();
  table.save_csv("exp8_coupling_ablation.csv");
  std::printf("\nCSV written to exp8_coupling_ablation.csv\n");
  return 0;
}

/// \file bench_exp10_fabric_priority.cpp
/// \brief EXP10 — ablation: QoS-priority arbitration in the fabric vs.
///        bandwidth regulation at the port edge.
///
/// An alternative to regulating the aggressors is to prioritise the
/// critical master inside the interconnect (AXI QoS signals driving a
/// fixed-priority arbiter). This experiment compares, under 4 saturating
/// aggressors:
///   * plain round-robin fabric (baseline);
///   * fixed-priority fabric, CPU highest (no regulation);
///   * round-robin fabric + tightly-coupled per-port regulators;
///   * both combined.
/// Expected shape: fabric priority helps the critical task's *crossbar*
/// queueing but cannot control the DRAM controller's shared queues and
/// banks, so the critical tail stays inflated and — crucially — the
/// aggressors keep saturating memory. Regulation at the edge bounds the
/// aggressors themselves; the combination is strictest of all.
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

struct Row {
  const char* config;
  double mean_slow;
  double p99_slow;
  double be_gbps;
};

double g_solo_mean = 0;
double g_solo_p99 = 0;

Row run_one(const char* label, bool priority_fabric, bool regulate) {
  Scenario s = build_scenario(
      bench_spec(regulate ? Scheme::kHw : Scheme::kNone, 4, 40));
  if (priority_fabric) {
    // CPU (master 0) gets the highest level, accelerators the lowest.
    std::vector<int> prio(s.chip->xbar().master_count(), 0);
    prio[0] = 15;
    s.chip->xbar().set_arbiter(
        std::make_unique<axi::FixedPriorityArbiter>(prio));
  }
  const double mean = run_critical(s, 2000 * sim::kPsPerMs);
  const double p99 =
      static_cast<double>(s.critical->stats().iteration_ps.p99());
  return Row{label, mean / g_solo_mean, p99 / g_solo_p99,
             s.aggressor_bps() / 1e9};
}

}  // namespace

int main() {
  std::printf(
      "EXP10 (ablation): fabric priority vs. edge regulation, 4 "
      "saturating aggressors\n\n");
  {
    Scenario s = build_scenario(bench_spec(Scheme::kNone, 0, 40));
    g_solo_mean = run_critical(s, 400 * sim::kPsPerMs);
    g_solo_p99 =
        static_cast<double>(s.critical->stats().iteration_ps.p99());
  }
  util::Table table({"fabric", "regulators", "slowdown_mean", "slowdown_p99",
                     "aggressor_GB/s"});
  const Row rows[] = {
      run_one("rr / off", false, false),
      run_one("priority / off", true, false),
      run_one("rr / on", false, true),
      run_one("priority / on", true, true),
  };
  const char* fabric[] = {"round-robin", "cpu-priority", "round-robin",
                          "cpu-priority"};
  const char* regs[] = {"off", "off", "400 MB/s", "400 MB/s"};
  for (std::size_t i = 0; i < 4; ++i) {
    table.add_row({fabric[i], regs[i],
                   util::format_fixed(rows[i].mean_slow, 2) + "x",
                   util::format_fixed(rows[i].p99_slow, 2) + "x",
                   util::format_fixed(rows[i].be_gbps, 2)});
  }
  table.print();
  table.save_csv("exp10_fabric_priority.csv");
  std::printf("\nCSV written to exp10_fabric_priority.csv\n");
  return 0;
}

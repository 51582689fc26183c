/// \file bench_exp5_utilization.cpp
/// \brief EXP5 — Fig. 4 reconstruction: guarantee vs. utilisation.
///
/// Holds the critical CPU task's slowdown near a 10% target under every
/// scheme and reports how much aggregate best-effort accelerator
/// bandwidth each scheme preserves. Prior-work anchors (DATE'22): PREM
/// leaves the accelerator bandwidth during CPU slots entirely unused;
/// CMRI recovers >40% of it while keeping the slowdown below 10%; the
/// tightly-coupled HW regulator should do at least as well without any
/// slot structure. For HW QoS and CMRI the knob (per-master budget /
/// injection budget) is swept and each point is reported, so the
/// slowdown-vs-utilisation frontier is visible.
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

struct Point {
  std::string scheme;
  std::string knob;
  double slowdown_mean;
  double slowdown_p99;  ///< the guarantee metric (WCET proxy)
  double be_gbps;
};

double g_solo_mean = 0;
double g_solo_p99 = 0;

/// One compared configuration.
struct Config {
  Scheme scheme;
  std::string knob;
  scenario::Spec spec;
};

Config config(Scheme scheme, std::string knob) {
  // Long enough to span many SW-MemGuard periods (>= 10 ms of run time),
  // so per-period boundary effects do not distort the bandwidth averages.
  return Config{scheme, std::move(knob), bench_spec(scheme, 4, 80)};
}

Point run_point(const Config& c) {
  Scenario s = build_scenario(c.spec);
  const double mean = run_critical(s, 2000 * sim::kPsPerMs);
  const double p99 =
      static_cast<double>(s.critical->stats().iteration_ps.p99());
  return Point{scheme_name(c.scheme, 4), c.knob, mean / g_solo_mean,
               p99 / g_solo_p99, s.aggressor_bps() / 1e9};
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "EXP5 (Fig.4): critical-task slowdown vs. best-effort bandwidth "
      "(guarantee: p99 slowdown <= 1.15x)\n\n");
  {
    Scenario s = build_scenario(bench_spec(Scheme::kNone, 0, 80));
    g_solo_mean = run_critical(s, 400 * sim::kPsPerMs);
    g_solo_p99 =
        static_cast<double>(s.critical->stats().iteration_ps.p99());
  }

  util::Table table({"scheme", "knob", "slowdown_mean", "slowdown_p99",
                     "best_effort_GB/s", "vs_unregulated_%"});

  // Every point is an independent scenario; declare them all, then fan
  // out. The solo baseline above ran first because run_point reads it.
  std::vector<Config> configs;
  configs.push_back(config(Scheme::kNone, "-"));
  // Strict PREM: accelerators fully blocked while the critical task runs.
  configs.push_back(config(Scheme::kPremStrict, "-"));
  // PREM: 50/50 TDMA frame.
  configs.push_back(config(Scheme::kPrem, "slot 10us"));
  // PREM + CMRI: injection budget sweep.
  for (const std::uint64_t inj : {1024u, 4096u, 16384u, 65536u}) {
    Config c = config(Scheme::kPremCmri, util::format_bytes(inj) + "/slot");
    c.spec.cmri_injection_bytes = inj;
    configs.push_back(std::move(c));
  }
  // Software MemGuard and tightly-coupled HW regulators: per-master
  // budget sweeps.
  for (const double b : {200e6, 400e6, 800e6}) {
    Config c = config(Scheme::kSw,
                      util::format_bandwidth(b) + "/master");
    c.spec.budget_bps = b;
    configs.push_back(std::move(c));
  }
  for (const double b : {200e6, 400e6, 800e6, 1200e6, 1600e6}) {
    Config c = config(Scheme::kHw, util::format_bandwidth(b) + "/master");
    c.spec.budget_bps = b;
    configs.push_back(std::move(c));
  }

  exec::ScenarioRunner runner(bench_exec_config(argc, argv));
  const std::vector<Point> points =
      runner.map(configs.size(), [&](const exec::JobContext& ctx) {
        return run_point(configs[ctx.index]);
      });
  const double unreg_be = points[0].be_gbps;

  for (const auto& pt : points) {
    table.add_row({pt.scheme, pt.knob,
                   util::format_fixed(pt.slowdown_mean, 2) + "x",
                   util::format_fixed(pt.slowdown_p99, 2) + "x",
                   util::format_fixed(pt.be_gbps, 2),
                   util::format_fixed(pt.be_gbps / unreg_be * 100.0, 1)});
  }
  table.print();
  table.save_csv("exp5_utilization.csv");

  // Summary: best bandwidth at slowdown <= 1.10 per scheme.
  std::printf(
      "\nbest best-effort bandwidth with p99 slowdown <= 1.15x (the\n"
      "guarantee criterion: tail latency, not average):\n");
  for (const char* scheme :
       {"prem_strict", "prem_tdma", "prem_cmri", "memguard_sw", "hw_qos"}) {
    double best = 0;
    for (const auto& pt : points) {
      if (pt.scheme == scheme && pt.slowdown_p99 <= 1.15) {
        best = std::max(best, pt.be_gbps);
      }
    }
    std::printf("  %-12s %6.2f GB/s (%.0f%% of unregulated)\n", scheme, best,
                best / unreg_be * 100.0);
  }
  std::printf("\nCSV written to exp5_utilization.csv\n");
  print_exec_summary(runner);
  return 0;
}

/// \file bench_exp1_interference.cpp
/// \brief EXP1 — Fig. 1 reconstruction: unregulated memory interference.
///
/// Sweeps the number of active FPGA DMA masters (0..4) and their traffic
/// pattern, for two critical CPU workload classes (latency-sensitive
/// pointer chase and bandwidth-sensitive streaming), and reports the
/// critical task's slowdown relative to solo execution plus the raw CPU
/// read-latency tail. Prior-work anchor (same research group, DATE'22):
/// CPU tasks slow down by up to ~16x on FPGA HeSoCs under such traffic.
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

struct Row {
  std::string workload;
  std::string pattern;
  std::size_t gens;
  double iter_mean_ps;
  double read_p99_ps;
  double aggressor_gbps;
};

Row run_one(const std::string& workload, wl::Pattern pattern,
            std::size_t gens) {
  scenario::Spec p = bench_spec(Scheme::kNone, gens, 8, pattern);
  if (workload == "latency") {
    p.critical->kernel = [] {
      wl::PointerChaseConfig pc;
      pc.accesses_per_iteration = 1024;
      return wl::make_pointer_chase(pc);
    };
  } else {
    p.critical->kernel = [] {
      wl::StreamConfig sc;
      sc.lines_per_iteration = 16384;
      return wl::make_stream(sc);
    };
  }
  Scenario s = build_scenario(p);
  const double mean = run_critical(s, 400 * sim::kPsPerMs);
  return Row{workload,
             pattern_name(pattern),
             gens,
             mean,
             static_cast<double>(
                 s.chip->cpu_port().stats().read_latency.p99()),
             s.aggressor_bps() / 1e9};
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "EXP1 (Fig.1): unregulated interference on the critical CPU task\n"
      "platform: %zu HP ports, DDR4-2400 64-bit (19.2 GB/s peak)\n\n",
      soc::SocConfig{}.accel_ports);

  const std::vector<std::string> workloads = {"latency", "stream"};
  const std::vector<wl::Pattern> patterns = {
      wl::Pattern::kSeqRead, wl::Pattern::kSeqWrite, wl::Pattern::kRandomRead};

  // Every (workload, pattern, gens) cell is an independent simulation:
  // flatten the grid, fan out, merge rows back in grid order.
  struct Point {
    std::string workload;
    wl::Pattern pattern;
    std::size_t gens;
  };
  std::vector<Point> grid;
  for (const auto& w : workloads) {
    for (const auto pat : patterns) {
      for (std::size_t gens = 0; gens <= 4; ++gens) {
        grid.push_back({w, pat, gens});
      }
    }
  }
  exec::ScenarioRunner runner(bench_exec_config(argc, argv));
  const std::vector<Row> rows =
      runner.map(grid.size(), [&](const exec::JobContext& ctx) {
        const Point& pt = grid[ctx.index];
        return run_one(pt.workload, pt.pattern, pt.gens);
      });

  util::Table table({"workload", "aggressor", "n_gens", "iter_mean",
                     "slowdown", "cpu_read_p99", "aggr_GB/s"});
  double solo_mean = 0;
  for (const Row& r : rows) {
    if (r.gens == 0) {
      solo_mean = r.iter_mean_ps;
    }
    table.add_row({r.workload, r.pattern, static_cast<std::uint64_t>(r.gens),
                   util::format_time_ps(
                       static_cast<sim::TimePs>(r.iter_mean_ps)),
                   util::format_fixed(r.iter_mean_ps / solo_mean, 2) + "x",
                   util::format_time_ps(
                       static_cast<sim::TimePs>(r.read_p99_ps)),
                   util::format_fixed(r.aggressor_gbps, 2)});
  }
  table.print();
  table.save_csv("exp1_interference.csv");
  std::printf("\nCSV written to exp1_interference.csv\n");
  print_exec_summary(runner);
  return 0;
}

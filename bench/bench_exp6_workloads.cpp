/// \file bench_exp6_workloads.cpp
/// \brief EXP6 — Table II reconstruction: end-to-end workload suite.
///
/// Every kernel of the benchmark suite (streaming read/copy/write,
/// latency, random update, phased, compute-bound control) runs as the
/// critical task under: solo, unregulated interference (4 seq-read
/// aggressors), software MemGuard and the HW regulator (both at
/// 400 MB/s per aggressor). Reports mean and p99 iteration times and the
/// slowdown factors. Expected shape: memory-bound kernels suffer the
/// most; the compute-bound control is insensitive; HW QoS restores every
/// kernel to near solo while SW MemGuard leaves residual tail slowdown.
#include <cstdio>

#include "common.hpp"
#include "workload/suite.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

struct Meas {
  double mean_ps;
  double p99_ps;
};

Meas run_one(const wl::SuiteEntry& entry, Scheme scheme,
             std::size_t aggressors = 4) {
  scenario::Spec p = bench_spec(scheme, aggressors, entry.iterations);
  p.critical->kernel = entry.make;
  Scenario s = build_scenario(p);
  run_critical(s, 2000 * sim::kPsPerMs);
  const auto& h = s.critical->stats().iteration_ps;
  return Meas{h.mean(), static_cast<double>(h.p99())};
}

}  // namespace

int main() {
  std::printf(
      "EXP6 (Table II): workload suite under interference and regulation "
      "(4 seq-read aggressors, 400 MB/s budgets)\n\n");
  util::Table table({"workload", "solo_mean", "interf", "memguard_sw",
                     "hw_qos", "interf_p99_x", "sw_p99_x", "hw_p99_x"});
  for (const auto& entry : wl::benchmark_suite()) {
    const Meas solo = run_one(entry, Scheme::kNone, 0);
    const Meas unreg = run_one(entry, Scheme::kNone);
    const Meas sw = run_one(entry, Scheme::kSw);
    const Meas hw = run_one(entry, Scheme::kHw);
    table.add_row(
        {entry.name,
         util::format_time_ps(static_cast<sim::TimePs>(solo.mean_ps)),
         util::format_fixed(unreg.mean_ps / solo.mean_ps, 2) + "x",
         util::format_fixed(sw.mean_ps / solo.mean_ps, 2) + "x",
         util::format_fixed(hw.mean_ps / solo.mean_ps, 2) + "x",
         util::format_fixed(unreg.p99_ps / solo.p99_ps, 2) + "x",
         util::format_fixed(sw.p99_ps / solo.p99_ps, 2) + "x",
         util::format_fixed(hw.p99_ps / solo.p99_ps, 2) + "x"});
  }
  table.print();
  table.save_csv("exp6_workloads.csv");
  std::printf("\nCSV written to exp6_workloads.csv\n");
  return 0;
}

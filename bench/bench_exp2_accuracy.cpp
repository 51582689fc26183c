/// \file bench_exp2_accuracy.cpp
/// \brief EXP2 — Table I reconstruction: bandwidth-regulation accuracy.
///
/// One saturating DMA master is regulated to a sweep of target rates by
/// (a) the tightly-coupled hardware regulator (1 us window) and (b) the
/// software MemGuard baseline (1 ms timer + overflow IRQ + 3 us ISR
/// path). Reports measured vs programmed bandwidth and the relative
/// error. The HW regulator should track the budget almost exactly at
/// every rate; the SW baseline overshoots by the bytes that slip through
/// during its reaction window, which dominates at small budgets.
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

double measure(Scheme scheme, double target_bps) {
  // No CPU task: isolate the regulator.
  scenario::Spec p = bench_spec(scheme, 1, 0);
  p.budget_bps = target_bps;
  Scenario s = build_scenario(p);
  run_for(s, 20 * sim::kPsPerMs);
  return sim::bytes_per_second(
      s.chip->accel_port(0).stats().bytes_granted.value(), s.chip->now());
}

}  // namespace

int main() {
  std::printf(
      "EXP2 (Table I): regulation accuracy, HW (1 us window) vs SW MemGuard "
      "(1 ms period, 3 us ISR)\n\n");
  util::Table table({"target", "hw_measured", "hw_err_%", "sw_measured",
                     "sw_err_%"});
  const std::vector<double> targets = {50e6,  100e6, 200e6, 400e6,
                                       800e6, 1.6e9, 3.2e9};
  for (const double t : targets) {
    const double hw = measure(Scheme::kHw, t);
    const double sw = measure(Scheme::kSw, t);
    table.add_row({util::format_bandwidth(t), util::format_bandwidth(hw),
                   util::format_fixed((hw - t) / t * 100.0, 2),
                   util::format_bandwidth(sw),
                   util::format_fixed((sw - t) / t * 100.0, 2)});
  }
  table.print();
  table.save_csv("exp2_accuracy.csv");
  std::printf("\nCSV written to exp2_accuracy.csv\n");
  return 0;
}

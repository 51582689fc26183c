/// \file bench_exp7_reaction.cpp
/// \brief EXP7 — Fig. 5 reconstruction: regulator reaction latency.
///
/// Measures how many bytes slip past each regulator between the instant a
/// budget is crossed and the instant the throttle actually bites — the
/// quantity that determines how far a guarantee can be violated.
///  * HW tightly-coupled: the gate shuts in the same cycle; violation is
///    bounded by one in-flight line (<= 64 B).
///  * SW MemGuard: the overflow IRQ + ISR path lets the master run free
///    for the full reaction latency; the experiment sweeps that latency
///    and the regulation period.
/// Reported per configuration: violation bytes per period, the implied
/// average guarantee overshoot, and the reaction time.
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

/// Runs one saturating DMA under SW MemGuard; returns violation bytes per
/// period and the measured rate.
struct SwResult {
  double violation_per_period;
  double measured_bps;
};

SwResult run_sw(sim::TimePs period, sim::TimePs isr, double budget_bps) {
  scenario::Spec p = bench_spec(Scheme::kSw, 1, 0);
  p.budget_bps = budget_bps;
  p.memguard.period_ps = period;
  p.memguard.isr_latency_ps = isr;
  Scenario s = build_scenario(p);
  const sim::TimePs horizon = 50 * sim::kPsPerMs;
  run_for(s, horizon);
  const auto& st = s.memguard->master_stats(s.chip->accel_port(0).id());
  const double periods =
      static_cast<double>(horizon) / static_cast<double>(period);
  return SwResult{static_cast<double>(st.violation_bytes) / periods,
                  sim::bytes_per_second(
                      s.chip->accel_port(0).stats().bytes_granted.value(),
                      horizon)};
}

}  // namespace

int main() {
  const double budget = 400e6;  // 400 MB/s target for every configuration
  std::printf(
      "EXP7 (Fig.5): reaction latency and guarantee violation, one "
      "saturating DMA regulated to 400 MB/s\n\n");

  util::Table table({"scheme", "period", "reaction", "violation/period",
                     "measured", "overshoot_%"});

  // Hardware tightly-coupled regulator at several windows: violation is
  // whatever exceeds the byte budget within each window (credit overdraft
  // is bounded by one line).
  for (const sim::TimePs w :
       {sim::kPsPerUs, 10 * sim::kPsPerUs, 100 * sim::kPsPerUs}) {
    scenario::Spec p = bench_spec(Scheme::kHw, 1, 0);
    p.budget_bps = budget;
    p.window_ps = w;
    Scenario s = build_scenario(p);
    // Trace per-window bytes with the monitor to find the worst window.
    qos::BandwidthMonitor& mon = *s.chip->qos_block(1).monitor;
    mon.set_window(w);
    const sim::TimePs horizon = 50 * sim::kPsPerMs;
    run_for(s, horizon);
    const double measured = sim::bytes_per_second(
        s.chip->accel_port(0).stats().bytes_granted.value(), horizon);
    const std::uint64_t budget_per_window = qos::budget_for_rate(budget, w);
    const std::uint64_t worst = mon.last_window_bytes();  // representative
    const double violation =
        worst > budget_per_window
            ? static_cast<double>(worst - budget_per_window)
            : 0.0;
    table.add_row({"hw_qos", util::format_time_ps(w), "same-cycle",
                   util::format_bytes(static_cast<std::uint64_t>(violation)),
                   util::format_bandwidth(measured),
                   util::format_fixed((measured - budget) / budget * 100, 2)});
  }

  // Software MemGuard: ISR latency sweep at 1 ms, then period sweep.
  for (const sim::TimePs isr :
       {sim::kPsPerUs, 3 * sim::kPsPerUs, 10 * sim::kPsPerUs,
        50 * sim::kPsPerUs}) {
    const SwResult r = run_sw(sim::kPsPerMs, isr, budget);
    table.add_row({"memguard_sw", "1.00 ms", util::format_time_ps(isr),
                   util::format_bytes(
                       static_cast<std::uint64_t>(r.violation_per_period)),
                   util::format_bandwidth(r.measured_bps),
                   util::format_fixed(
                       (r.measured_bps - budget) / budget * 100, 2)});
  }
  for (const sim::TimePs period :
       {100 * sim::kPsPerUs, sim::kPsPerMs, 10 * sim::kPsPerMs}) {
    const SwResult r = run_sw(period, 3 * sim::kPsPerUs, budget);
    table.add_row({"memguard_sw", util::format_time_ps(period), "3.00 us",
                   util::format_bytes(
                       static_cast<std::uint64_t>(r.violation_per_period)),
                   util::format_bandwidth(r.measured_bps),
                   util::format_fixed(
                       (r.measured_bps - budget) / budget * 100, 2)});
  }

  table.print();
  table.save_csv("exp7_reaction.csv");
  std::printf("\nCSV written to exp7_reaction.csv\n");
  return 0;
}

/// \file bench_exp3_granularity.cpp
/// \brief EXP3 — Fig. 2 reconstruction: regulation-window granularity.
///
/// Three DMA aggressors each regulated to the same rate (800 MB/s) with
/// the replenish window swept from 200 ns to 10 ms, against a
/// latency-critical CPU task. Reports the critical task's mean and p99
/// iteration time, the CPU read p99, and the worst burst any aggressor
/// fit into a fixed 10 us measurement interval. Coarser windows let the
/// full window budget arrive as one contiguous burst, inflating the
/// critical task's tail latency even though the average rate is
/// unchanged — the reason fine granularity (only affordable in tightly-
/// coupled hardware) matters.
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

struct WindowRow {
  double iter_mean_ps = 0;
  sim::TimePs iter_p99_ps = 0;
  sim::TimePs read_p99_ps = 0;
  std::uint64_t max_burst_bytes = 0;
  double aggr_gbps = 0;
};

WindowRow run_window(sim::TimePs w) {
  // The run must span many regulation windows for the average to be
  // meaningful; one pointer-chase iteration is ~140 us.
  const std::uint64_t needed = (30 * w) / (140 * sim::kPsPerUs) + 1;
  scenario::Spec p = bench_spec(
      Scheme::kHw, 3,
      std::max<std::uint64_t>(8, std::min<std::uint64_t>(needed, 2200)));
  p.budget_bps = 800e6;
  p.window_ps = w;
  Scenario s = build_scenario(p);
  // Fixed-resolution burst measurement on aggressor port 0.
  sim::WindowedBytes burst(10 * sim::kPsPerUs);
  class BurstObserver final : public axi::TxnObserver {
   public:
    explicit BurstObserver(sim::WindowedBytes& wbytes) : w_(wbytes) {}
    void on_issue(const axi::Transaction&, sim::TimePs) override {}
    void on_grant(const axi::LineRequest& l, sim::TimePs now) override {
      w_.add(now, l.bytes);
    }
    void on_complete(const axi::Transaction&, sim::TimePs) override {}

   private:
    sim::WindowedBytes& w_;
  } obs(burst);
  s.chip->accel_port(0).add_observer(obs);

  const double mean = run_critical(s, 600 * sim::kPsPerMs);
  burst.flush(s.chip->now());
  return WindowRow{mean, s.critical->stats().iteration_ps.p99(),
                   s.chip->cpu_port().stats().read_latency.p99(),
                   burst.max_window_bytes(), s.aggressor_bps() / 1e9};
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "EXP3 (Fig.2): regulation window sweep, 3 aggressors @ 800 MB/s "
      "each, latency-critical CPU task\n\n");
  const std::vector<sim::TimePs> windows = {
      200 * sim::kPsPerNs,  sim::kPsPerUs,       5 * sim::kPsPerUs,
      20 * sim::kPsPerUs,   100 * sim::kPsPerUs, sim::kPsPerMs,
      10 * sim::kPsPerMs};

  // Solo reference.
  double solo_mean = 0;
  {
    Scenario s = build_scenario(bench_spec(Scheme::kNone, 0, 8));
    solo_mean = run_critical(s, 400 * sim::kPsPerMs);
  }

  // Each window length is an independent point; fan out and merge in
  // sweep order.
  exec::ScenarioRunner runner(bench_exec_config(argc, argv));
  const std::vector<WindowRow> rows = runner.map(
      windows.size(),
      [&](const exec::JobContext& ctx) { return run_window(windows[ctx.index]); });

  util::Table table({"window", "iter_mean", "iter_p99", "slowdown",
                     "cpu_read_p99", "max_burst_10us", "aggr_GB/s"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const WindowRow& r = rows[i];
    table.add_row(
        {util::format_time_ps(windows[i]),
         util::format_time_ps(static_cast<sim::TimePs>(r.iter_mean_ps)),
         util::format_time_ps(r.iter_p99_ps),
         util::format_fixed(r.iter_mean_ps / solo_mean, 2) + "x",
         util::format_time_ps(r.read_p99_ps),
         util::format_bytes(r.max_burst_bytes),
         util::format_fixed(r.aggr_gbps, 2)});
  }
  table.print();
  table.save_csv("exp3_granularity.csv");
  std::printf(
      "\nsolo reference: %s per iteration\nCSV written to "
      "exp3_granularity.csv\n",
      util::format_time_ps(static_cast<sim::TimePs>(solo_mean)).c_str());
  print_exec_summary(runner);
  return 0;
}

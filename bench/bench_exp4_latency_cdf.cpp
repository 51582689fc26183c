/// \file bench_exp4_latency_cdf.cpp
/// \brief EXP4 — Fig. 3 reconstruction: critical read-latency distribution.
///
/// Percentiles (p50/p90/p99/p99.9/max) of the critical CPU's DRAM read
/// latency under: solo, unregulated interference, software MemGuard and
/// the tightly-coupled hardware regulator, plus the full CDF as CSV.
/// Expected shape: HW QoS pulls the whole distribution back near solo;
/// SW MemGuard trims the average but leaves a long tail (the bursts that
/// slip through each period before the ISR lands).
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

struct Dist {
  std::string scheme;
  sim::Histogram latency;
  double aggressor_gbps = 0;
};

Dist run_one(Scheme scheme, std::size_t aggressors) {
  // >= 10 SW-MemGuard periods of run time, so the distribution reflects
  // steady-state regulation rather than first-period transients.
  Scenario s = build_scenario(bench_spec(scheme, aggressors, 80));
  run_critical(s, 2000 * sim::kPsPerMs);
  Dist d;
  d.scheme = scheme_name(scheme, aggressors);
  d.latency = s.chip->cpu_port().stats().read_latency;
  d.aggressor_gbps = s.aggressor_bps() / 1e9;
  return d;
}

}  // namespace

int main() {
  std::printf(
      "EXP4 (Fig.3): critical CPU read-latency distribution, 4 aggressors\n\n");
  const std::vector<std::pair<Scheme, std::size_t>> runs = {
      {Scheme::kNone, 0}, {Scheme::kNone, 4}, {Scheme::kSw, 4},
      {Scheme::kHw, 4}};
  util::Table table({"scheme", "p50", "p90", "p99", "p99.9", "max", "mean",
                     "aggr_GB/s"});
  util::Table cdf_csv({"scheme", "latency_ps", "cumulative"});
  for (const auto& [scheme, aggressors] : runs) {
    Dist d = run_one(scheme, aggressors);
    table.add_row({d.scheme, util::format_time_ps(d.latency.p50()),
                   util::format_time_ps(d.latency.p90()),
                   util::format_time_ps(d.latency.p99()),
                   util::format_time_ps(d.latency.p999()),
                   util::format_time_ps(d.latency.max()),
                   util::format_time_ps(
                       static_cast<sim::TimePs>(d.latency.mean())),
                   util::format_fixed(d.aggressor_gbps, 2)});
    for (const auto& pt : d.latency.cdf()) {
      cdf_csv.add_row({d.scheme, pt.value, pt.cumulative});
    }
  }
  table.print();
  cdf_csv.save_csv("exp4_latency_cdf.csv");
  std::printf("\nfull CDF series written to exp4_latency_cdf.csv\n");
  return 0;
}

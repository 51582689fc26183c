/// \file characterize_platform.cpp
/// \brief Tool example: measures the simulated platform's memory system
///        (the numbers a board bring-up would produce).
///
/// Reports, for the default Zynq-US+-like configuration:
///  * peak sequential / random read and write bandwidth per port count;
///  * idle and loaded DRAM read latency from the CPU;
///  * row-hit rate and bus utilisation per pattern.
/// Useful both as a library tour and to pick sensible capacity numbers
/// for QosManager (the experiments use ~11 GB/s, measured here).
#include <cstdio>

#include "scenario/scenario.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "workload/cpu_workloads.hpp"

using namespace fgqos;

namespace {

struct Meas {
  double gbps;
  double bus_util;
  double hit_rate;
};

/// The platform without QoS blocks, with \p gens generators of \p pattern
/// (one per HP port, seeds from \p base_seed).
scenario::Spec unregulated(std::size_t gens, wl::Pattern pattern,
                           std::uint64_t base_seed) {
  scenario::Spec spec;
  spec.platform.qos_blocks = false;
  spec.aggressors = scenario::standard_aggressors(gens, pattern, base_seed);
  return spec;
}

Meas run_pattern(wl::Pattern pattern, std::size_t gens) {
  scenario::Scenario s =
      scenario::build(unregulated(gens, pattern, 60), {}, 1);
  soc::Soc& chip = *s.chip;
  chip.run_for(5 * sim::kPsPerMs);
  Meas m;
  m.gbps = chip.dram_bandwidth_bps() / 1e9;
  m.bus_util = chip.dram().bus_utilization(chip.now());
  const auto& ds = chip.dram().stats();
  const double cas =
      static_cast<double>(ds.reads_serviced.value() + ds.writes_serviced.value());
  m.hit_rate = cas == 0 ? 0 : static_cast<double>(ds.row_hits()) / cas;
  return m;
}

}  // namespace

int main() {
  soc::SocConfig cfg;
  std::printf("platform characterisation: %s\n", cfg.name.c_str());
  std::printf("  CPU %llu MHz, fabric %llu MHz, DDR4-%llu (%.1f GB/s peak)\n\n",
              static_cast<unsigned long long>(cfg.cpu_mhz),
              static_cast<unsigned long long>(cfg.fabric_mhz),
              static_cast<unsigned long long>(cfg.dram.timing.clock_mhz * 2),
              cfg.dram.timing.peak_bandwidth_bps() / 1e9);

  util::Table bw({"pattern", "ports", "GB/s", "bus_util_%", "row_hit_%"});
  for (const auto pattern :
       {wl::Pattern::kSeqRead, wl::Pattern::kSeqWrite, wl::Pattern::kCopy,
        wl::Pattern::kRandomRead}) {
    for (const std::size_t gens : {std::size_t{1}, std::size_t{4}}) {
      const Meas m = run_pattern(pattern, gens);
      bw.add_row({wl::pattern_name(pattern),
                  static_cast<std::uint64_t>(gens),
                  util::format_fixed(m.gbps, 2),
                  util::format_fixed(m.bus_util * 100, 1),
                  util::format_fixed(m.hit_rate * 100, 1)});
    }
  }
  std::printf("aggregate DRAM bandwidth by accelerator pattern:\n");
  bw.print();

  // CPU latency, idle and loaded.
  auto cpu_latency = [](std::size_t gens) {
    scenario::Spec spec = unregulated(gens, wl::Pattern::kSeqRead, 80);
    scenario::Critical critical;
    critical.core.max_iterations = 4;
    critical.kernel = [] {
      wl::PointerChaseConfig pc;
      pc.accesses_per_iteration = 4096;
      return wl::make_pointer_chase(pc);
    };
    spec.critical = critical;
    scenario::Scenario s = scenario::build(spec, {}, 1);
    s.chip->run_until_cores_finished(400 * sim::kPsPerMs);
    const auto& h = s.chip->cpu_port().stats().read_latency;
    return std::pair<double, double>(h.mean(), static_cast<double>(h.p99()));
  };
  const auto [idle_mean, idle_p99] = cpu_latency(0);
  const auto [load_mean, load_p99] = cpu_latency(4);
  std::printf("\nCPU DRAM read latency:\n");
  std::printf("  idle    mean %-10s p99 %s\n",
              util::format_time_ps(static_cast<sim::TimePs>(idle_mean)).c_str(),
              util::format_time_ps(static_cast<sim::TimePs>(idle_p99)).c_str());
  std::printf("  loaded  mean %-10s p99 %s  (4 seq-read aggressors)\n",
              util::format_time_ps(static_cast<sim::TimePs>(load_mean)).c_str(),
              util::format_time_ps(static_cast<sim::TimePs>(load_p99)).c_str());
  return 0;
}

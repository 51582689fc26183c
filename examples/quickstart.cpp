/// \file quickstart.cpp
/// \brief Minimal end-to-end tour of the library.
///
/// Describes the default Zynq-US+-like platform as a scenario::Spec, runs a
/// latency-critical CPU task against three saturating FPGA accelerators,
/// then turns on the tightly-coupled hardware regulators (400 MB/s per port
/// in 1 us windows) and shows the critical task's latency recovering while
/// the accelerators keep most of their bandwidth.
#include <cstdio>

#include "scenario/scenario.hpp"
#include "workload/cpu_workloads.hpp"

using namespace fgqos;

namespace {

struct RunResult {
  double iter_ms_mean;
  double iter_ms_p99;
  double cpu_read_p99_us;
  double accel_total_gbps;
};

RunResult run_scenario(std::size_t dma_masters, scenario::Scheme scheme) {
  scenario::Spec spec;
  // Latency-critical task on core 0: dependent random loads over 16 MiB.
  scenario::Critical critical;
  critical.core.name = "critical";
  critical.core.max_iterations = 20;
  critical.kernel = [] {
    wl::PointerChaseConfig pc;
    pc.accesses_per_iteration = 2048;
    return wl::make_pointer_chase(pc);
  };
  spec.critical = critical;
  // DMA engines hammering memory with sequential reads, one per HP port.
  spec.aggressors =
      scenario::standard_aggressors(dma_masters, wl::Pattern::kSeqRead, 100);
  spec.scheme = scheme;
  spec.regulated_ports = scenario::first_ports(dma_masters);

  scenario::Scenario s = scenario::build(spec, {}, 1);
  s.chip->run_until_cores_finished(50 * sim::kPsPerMs);

  const auto& iter = s.critical->stats().iteration_ps;
  return RunResult{
      iter.mean() / 1e9,
      static_cast<double>(iter.p99()) / 1e9,
      static_cast<double>(s.chip->cpu_port().stats().read_latency.p99()) /
          1e6,
      s.aggressor_bps() / 1e9,
  };
}

}  // namespace

int main() {
  std::printf("fgqos quickstart: critical CPU task vs. 3 DMA masters\n\n");
  const RunResult solo = run_scenario(0, scenario::Scheme::kNone);
  const RunResult noisy = run_scenario(3, scenario::Scheme::kNone);
  const RunResult guarded = run_scenario(3, scenario::Scheme::kHw);

  std::printf("%-22s %12s %12s %14s %12s\n", "scenario", "iter mean", "iter p99",
              "read p99 (us)", "DMA GB/s");
  auto row = [](const char* name, const RunResult& r) {
    std::printf("%-22s %9.3f ms %9.3f ms %14.2f %12.2f\n", name,
                r.iter_ms_mean, r.iter_ms_p99, r.cpu_read_p99_us,
                r.accel_total_gbps);
  };
  row("solo (no DMA)", solo);
  row("interference", noisy);
  row("interference + QoS", guarded);

  std::printf("\nslowdown unregulated: %.2fx, with HW QoS: %.2fx\n",
              noisy.iter_ms_mean / solo.iter_ms_mean,
              guarded.iter_ms_mean / solo.iter_ms_mean);
  return 0;
}

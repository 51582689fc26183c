/// \file adas_pipeline.cpp
/// \brief Domain example: an ADAS perception pipeline on the FPGA SoC.
///
/// Mirrors the workload the paper's introduction motivates (the group
/// builds 1/10th-scale autonomous vehicles on Zynq UltraScale+):
///  * camera DMA     — hard real-time: 1.9 GB/s sustained (2 MP @ 60 fps
///                     ~ stereo pair), must never drop below rate;
///  * LiDAR particle — latency-critical CPU task (pointer-chasing map
///    filter            lookups) with a 1.5 ms per-iteration deadline;
///  * CNN engine     — best-effort accelerator, reads feature maps as
///                     fast as it can;
///  * logger DMA     — bulk best-effort writes to DRAM.
///
/// The example runs the pipeline without and with reservations programmed
/// through the QoS manager, and states from the measured numbers how close
/// the camera comes to its line rate and how often the filter misses its
/// deadline in each run.
#include <cstdio>

#include "qos/qos_manager.hpp"
#include "soc/soc.hpp"
#include "util/string_util.hpp"
#include "workload/cpu_workloads.hpp"

using namespace fgqos;

namespace {

constexpr sim::TimePs kDeadlinePs =
    sim::kPsPerMs + sim::kPsPerMs / 2;  // 1.5 ms
constexpr double kCameraLineBps = 1.9e9;

struct PipelineResult {
  double camera_bps;
  double filter_p99_ms;
  double filter_deadline_miss_pct;
  double cnn_bps;
  double logger_bps;
};

PipelineResult run(bool with_qos) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);

  // Camera DMA on HP0: paced at its line rate (a real camera cannot be
  // throttled; if the fabric starves it, frames drop).
  wl::TrafficGenConfig cam;
  cam.name = "camera";
  cam.pattern = wl::Pattern::kSeqWrite;  // frames into DRAM
  cam.target_bps = kCameraLineBps;
  cam.seed = 1;
  chip.add_traffic_gen(0, cam);

  // CNN engine on HP1: saturating reader.
  wl::TrafficGenConfig cnn;
  cnn.name = "cnn";
  cnn.base = 0x9000'0000;
  cnn.seed = 2;
  chip.add_traffic_gen(1, cnn);

  // Logger on HP2: bulk writer.
  wl::TrafficGenConfig log_dma;
  log_dma.name = "logger";
  log_dma.pattern = wl::Pattern::kSeqWrite;
  log_dma.base = 0xA000'0000;
  log_dma.seed = 3;
  chip.add_traffic_gen(2, log_dma);

  // Particle filter on the CPU: latency-critical map lookups.
  wl::PointerChaseConfig pf;
  pf.name = "particle_filter";
  pf.accesses_per_iteration = 4096;  // one filter update
  cpu::CoreConfig cc;
  cc.name = "filter";
  cc.max_iterations = 16;
  cpu::CpuCore& filter = chip.add_core(cc, wl::make_pointer_chase(pf));

  qos::QosManager mgr(chip.sim(), [] {
    qos::QosManagerConfig mc;
    mc.capacity_bps = 6e9;  // leave DRAM headroom for the CPU filter
    mc.reclaim_period_ps = 200 * sim::kPsPerUs;
    mc.best_effort_floor_bps = 300e6;
    return mc;
  }());
  if (with_qos) {
    mgr.add_port("camera", 1, chip.regfile(1));
    mgr.add_port("cnn", 2, chip.regfile(2));
    mgr.add_port("logger", 3, chip.regfile(3));
    if (!mgr.reserve(1, 2.0e9)) {
      std::fprintf(stderr, "camera reservation rejected!\n");
    }
    mgr.start_reclamation();  // CNN/logger reuse camera slack dynamically
  }

  chip.run_until_cores_finished(150 * sim::kPsPerMs);

  PipelineResult r{};
  const sim::TimePs now = chip.now();
  r.camera_bps = sim::bytes_per_second(
      chip.accel_port(0).stats().bytes_granted.value(), now);
  r.cnn_bps = sim::bytes_per_second(
      chip.accel_port(1).stats().bytes_granted.value(), now);
  r.logger_bps = sim::bytes_per_second(
      chip.accel_port(2).stats().bytes_granted.value(), now);
  r.filter_p99_ms =
      static_cast<double>(filter.stats().iteration_ps.p99()) / 1e9;
  // Deadline misses: iterations longer than the 1.5 ms budget.
  const auto cdf = filter.stats().iteration_ps.cdf();
  std::uint64_t within = 0;
  for (const auto& pt : cdf) {
    if (pt.value <= kDeadlinePs) {
      within = pt.cumulative;
    }
  }
  const std::uint64_t total = filter.stats().iteration_ps.count();
  r.filter_deadline_miss_pct =
      total == 0 ? 100.0
                 : 100.0 * static_cast<double>(total - within) /
                       static_cast<double>(total);
  return r;
}

void print(const char* label, const PipelineResult& r) {
  std::printf("%-14s camera %-11s filter p99 %6.2f ms  misses %5.1f%%  cnn %-11s logger %s\n",
              label, util::format_bandwidth(r.camera_bps).c_str(),
              r.filter_p99_ms, r.filter_deadline_miss_pct,
              util::format_bandwidth(r.cnn_bps).c_str(),
              util::format_bandwidth(r.logger_bps).c_str());
}

}  // namespace

int main() {
  std::printf(
      "ADAS pipeline on the simulated FPGA SoC\n"
      "  camera needs 1.9 GB/s sustained; particle filter deadline: 1.5 ms\n\n");
  const PipelineResult off = run(false);
  const PipelineResult on = run(true);
  print("no QoS:", off);
  print("with QoS:", on);
  std::printf(
      "\nWith reservations the camera gets %.1f%% of its line rate (%.1f%% "
      "without)\nand the filter misses %.1f%% of its deadlines (%.1f%% "
      "without).\n",
      100.0 * on.camera_bps / kCameraLineBps,
      100.0 * off.camera_bps / kCameraLineBps, on.filter_deadline_miss_pct,
      off.filter_deadline_miss_pct);
  if (on.camera_bps < kCameraLineBps) {
    std::printf("The camera does not hold its line rate: it falls %s short.\n",
                util::format_bandwidth(kCameraLineBps - on.camera_bps).c_str());
  }
  return 0;
}

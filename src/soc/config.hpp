/// \file config.hpp
/// \brief Whole-platform configuration (Zynq UltraScale+-like defaults).
#pragma once

#include <cstdint>
#include <string>

#include "axi/interconnect.hpp"
#include "cpu/core.hpp"
#include "dram/controller.hpp"
#include "qos/bandwidth_monitor.hpp"
#include "qos/regulator.hpp"

namespace fgqos::soc {

/// Platform configuration. Defaults model the topology of a Zynq
/// UltraScale+ class device: a 4-core application cluster (1.2 GHz) with
/// private L1s and a shared 1 MiB L2, four FPGA HP master ports
/// (128-bit @ 300 MHz, 4.8 GB/s each), one shared AXI crossbar and one
/// 64-bit DDR4-2400 channel (19.2 GB/s theoretical peak).
struct SocConfig {
  std::string name = "zynqmp_sim";

  std::uint64_t cpu_mhz = 1200;
  std::uint64_t fabric_mhz = 300;
  std::uint64_t xbar_mhz = 600;

  dram::ControllerConfig dram{};
  /// Number of independent DRAM channels (1 on Zynq-US+-class parts;
  /// larger family members interleave lines across several).
  std::size_t dram_channels = 1;
  /// Channel-interleave granularity.
  std::uint64_t channel_stride_bytes = 4096;
  axi::InterconnectConfig xbar{};
  cpu::ClusterConfig cluster{};

  /// Number of FPGA accelerator (HP) master ports.
  std::size_t accel_ports = 4;

  /// CPU cluster port (master 0 on the crossbar).
  axi::MasterPortConfig cpu_port{
      .name = "cpu",
      .max_outstanding_reads = 16,
      .max_outstanding_writes = 16,
      .request_queue_depth = 16,
      .port_bandwidth_bps = 16e9,
      .request_latency_ps = 30'000,
      .response_latency_ps = 30'000,
      .line_bytes = 64,
      .qos = axi::kQosCritical,
      .critical = true,
  };

  /// Template for the HP ports (masters 1..accel_ports).
  axi::MasterPortConfig accel_port{
      .name = "hp",
      .max_outstanding_reads = 8,
      .max_outstanding_writes = 8,
      .request_queue_depth = 8,
      .port_bandwidth_bps = 4.8e9,
      .request_latency_ps = 50'000,
      .response_latency_ps = 50'000,
      .line_bytes = 64,
      .qos = axi::kQosBestEffort,
      .critical = false,
  };

  /// Instantiate a QoS block (monitor + regulator + register file) on
  /// every master port. Regulators start disabled (transparent).
  bool qos_blocks = true;

  /// Publish per-(bank, master) DRAM accounting: `dram.bank.<b>.port.<m>.*`
  /// metrics, the matching time-series, `dram.oob_decodes`, and the
  /// attribution bank dimension. Off by default so every existing export
  /// stays byte-identical; the controller tracks the counters either way.
  bool bank_telemetry = false;

  /// Attach the host-side hot-path profiler (telemetry::HostProfiler) at
  /// construction, before any component registers attribution tags. Off
  /// by default: disabled profiling costs one predicted branch per
  /// run_until() call and leaves every export byte-identical (CI-gated).
  bool profile = false;
  qos::RegulatorConfig default_regulator{
      .name = "reg",
      .budget_bytes = 4096,
      .window_ps = sim::kPsPerUs,
      .kind = qos::ReplenishKind::kFixedWindow,
      .max_accumulation_windows = 1,
      .enabled = false,
      .bank_budget_bytes = {},
      .observation_latency_ps = 0,
  };
  qos::MonitorConfig default_monitor{
      .name = "mon",
      .window_ps = sim::kPsPerUs,
      .keep_window_trace = false,
      .count_reads = true,
      .count_writes = true,
  };

  /// Throws ConfigError on inconsistencies.
  void validate() const;

 private:
  void cpu_port_check() const;
};

}  // namespace fgqos::soc

/// \file scenario.hpp
/// \brief One builder for the evaluation's scenario shape: a critical CPU
///        task or serving tenants plus N accelerator aggressors under a
///        regulation scheme.
///
/// fgqos_sim, fgqos_sweep, every bench but the kernel micro-bench and the
/// search objective all describe their platform as a Spec, say what to
/// record in Observers and call build(). The setup order is a contract
/// (docs/INTERNALS.md §8): the platform and every component that can
/// trace or journal exist first, the observers are wired after them in
/// one place, and certified admission runs last, so its decisions land in
/// the journal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qos/adaptive_controller.hpp"
#include "qos/cmri.hpp"
#include "qos/prem_arbiter.hpp"
#include "qos/qos_manager.hpp"
#include "qos/sla_watchdog.hpp"
#include "qos/soft_memguard.hpp"
#include "soc/soc.hpp"

namespace fgqos::scenario {

/// Regulation schemes. The PREM variants gate every HP port; the others
/// act on Spec::regulated_ports.
enum class Scheme : std::uint8_t {
  kNone,        ///< no QoS
  kHw,          ///< tightly-coupled per-port hardware regulators (the paper)
  kSw,          ///< software MemGuard (timer + overflow IRQ)
  kPremStrict,  ///< accelerators blocked for the whole run
  kPrem,        ///< PREM TDMA: 10 us CPU-exclusive / FPGA-shared slots
  kPremCmri,    ///< PREM TDMA plus controlled injection
  /// Hardware regulators driven by an AdaptiveQosController from a latency
  /// monitor on the protected port.
  kAdaptive,
};

/// The critical CPU task.
struct Critical {
  cpu::CoreConfig core;
  std::function<std::unique_ptr<cpu::Kernel>()> kernel;
};

/// What the platform is. Pointers are borrowed and must outlive build().
///
/// The protected port is the CPU port when a critical task runs, else the
/// first serving tenant's port; the kAdaptive monitor and the SLA
/// watchdog both watch it.
struct Spec {
  soc::SocConfig platform;
  std::optional<Critical> critical;
  /// Aggressor i runs on the (i mod k)-th of the k HP ports that no
  /// serving tenant owns.
  std::vector<wl::TrafficGenConfig> aggressors;
  Scheme scheme = Scheme::kNone;
  /// HP ports that kHw / kSw / kAdaptive regulate (and that get fallback
  /// watchdogs).
  std::vector<std::size_t> regulated_ports;
  double budget_bps = 400e6;  ///< per regulated port
  sim::TimePs window_ps = sim::kPsPerUs;  ///< kHw regulation window
  qos::SoftMemguardConfig memguard;       ///< kSw
  /// kAdaptive; period_ps is also the latency monitor's window.
  qos::AdaptiveControllerConfig adaptive;
  std::uint64_t cmri_injection_bytes = 2048;  ///< per non-owner per slot
  const qos::BankBudgetSpec* bank_budgets = nullptr;
  const wl::ServingSpec* serving = nullptr;
  const fault::FaultPlan* faults = nullptr;
  /// kHw budgets go through QosManager::reserve() against this envelope;
  /// a rejected port runs best-effort.
  const qos::CertifiedEnvelope* envelope = nullptr;
  /// Degraded-mode watchdog rate on each regulated port (0 = none).
  double watchdog_fallback_bps = 0;
};

/// When the decision journal starts.
enum class Journal : std::uint8_t {
  kOff,
  kRun,          ///< with the other observers: run-time decisions only
  kSetupAndRun,  ///< before the scheme is programmed: t = 0 writes too
};

/// What to record.
struct Observers {
  std::string trace_path;  ///< Chrome trace ("" = off)
  std::string trace_filter;
  bool lifecycle_metrics = false;  ///< per-hop histograms without a trace
  sim::TimePs blame_window_ps = 0;  ///< attribution window (0 = off)
  /// SLA watchdog on the protected port when any bound is set (needs
  /// blame).
  qos::SlaSpec sla;
  std::optional<telemetry::TimeSeriesConfig> timeseries;
  Journal journal = Journal::kOff;
  bool profile = false;  ///< host profiler
};

/// True when any bound of \p s is set.
[[nodiscard]] bool sla_active(const qos::SlaSpec& s);

/// Creates run-bundle directory \p dir and its parents; throws
/// ConfigError when it cannot.
void make_bundle_dir(const std::string& dir);

/// The standard aggressor set: generator i is "agg<i>" at base
/// 0x8000'0000 + i * stride_bytes with seed base_seed + i; the first
/// \p thrash are single-line row-miss thrashers (random 64 B reads, deep
/// outstanding window) whatever the pattern.
[[nodiscard]] std::vector<wl::TrafficGenConfig> standard_aggressors(
    std::size_t count, wl::Pattern pattern, std::uint64_t base_seed,
    std::uint64_t stride_bytes = 64ull << 20,
    std::uint64_t footprint_bytes = 16ull << 20, std::size_t thrash = 0);

/// HP ports 0..n-1.
[[nodiscard]] std::vector<std::size_t> first_ports(std::size_t n);

/// SLO of the key-value tenant kv_serving() describes.
constexpr sim::TimePs kKvSloPs = 3 * sim::kPsPerUs;

/// The serving experiments' latency-critical key-value tenant "lc" on HP
/// port 3 (spec seed 7): Poisson arrivals at \p load_qps for
/// \p duration_ps, Zipf 0.99 over 64 Ki keys of 4 KiB values in the first
/// 64 MiB, 95% reads, SLO kKvSloPs, 8 outstanding, a 4096-deep queue.
[[nodiscard]] wl::ServingSpec kv_serving(double load_qps,
                                         sim::TimePs duration_ps);

/// The bulk masters that contend with kv_serving()'s tenant: two hungry
/// generators for each of \p ports HP ports, standard_aggressors(2 *
/// ports, kSeqWrite, 60) with every odd one a random reader. Placed
/// around the tenant's port, each bulk port gets a streaming writer (its
/// write drains contend with the tenant's reads at the DDRC) and a
/// row-thrashing random reader.
[[nodiscard]] std::vector<wl::TrafficGenConfig> bulk_masters(
    std::size_t ports);

/// A built scenario. Owns the platform and the scheme objects the Soc does
/// not own; they are declared after the chip, so they die before it.
struct Scenario {
  std::unique_ptr<soc::Soc> chip;
  cpu::CpuCore* critical = nullptr;
  std::vector<wl::TrafficGen*> aggressors;
  std::unique_ptr<qos::SoftMemguard> memguard;
  std::unique_ptr<qos::PremArbiter> prem;
  std::unique_ptr<qos::CmriInjector> cmri;
  std::unique_ptr<axi::TxnGate> strict_gate;
  std::unique_ptr<qos::QosManager> manager;
  std::unique_ptr<qos::LatencyMonitor> monitor;  ///< kAdaptive
  std::unique_ptr<qos::AdaptiveQosController> adaptive;
  std::unique_ptr<qos::SlaWatchdog> sla;
  /// Envelope admission result per Spec::regulated_ports entry.
  std::vector<bool> admitted;

  /// Bandwidth granted to the ports hosting aggressors (bytes/second).
  [[nodiscard]] double aggressor_bps() const;
  /// Flushes trailing trace spans and closes the observers; call once the
  /// run is over, before reading any export.
  void finish();
  /// Writes the run bundle into the existing directory \p dir, each file
  /// stamped with \p manifest: metrics.{json,csv}, then blame.{csv,json},
  /// timeseries.{csv,json}, journal.jsonl and profile.{json,folded} for
  /// each observer that ran (trace.json is written by the trace itself).
  /// \p drop_host_timing drops the sim.wall* and profile.* metrics so
  /// equal scenarios write equal snapshots.
  void write(const std::string& dir, const telemetry::RunManifest& manifest,
             bool drop_host_timing = false);
};

/// Builds \p spec with \p obs wired. \p seed seeds the serving tenants and
/// the fault streams (aggressor seeds live in their configs).
[[nodiscard]] Scenario build(const Spec& spec, const Observers& obs,
                             std::uint64_t seed);

}  // namespace fgqos::scenario

/// \file soc.hpp
/// \brief The assembled platform: simulator + clocks + fabric + DRAM +
///        CPU cluster + per-port QoS blocks.
///
/// This is the main entry point of the library: construct a Soc from a
/// SocConfig, add CPU kernels and accelerator traffic generators, program
/// QoS through the register files (directly or via qos::QosManager), and
/// run. See examples/adas_pipeline.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "axi/channel_router.hpp"
#include "axi/interconnect.hpp"
#include "cpu/core.hpp"
#include "dram/controller.hpp"
#include "fault/injector.hpp"
#include "qos/bank_budget_spec.hpp"
#include "qos/ddrc_throttle.hpp"
#include "qos/regfile.hpp"
#include "qos/regulator_watchdog.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "soc/config.hpp"
#include "telemetry/hub.hpp"
#include "workload/serving.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos::soc {

/// Per-port QoS block: monitor + regulator behind a register file.
struct QosBlock {
  std::unique_ptr<qos::Regulator> regulator;
  std::unique_ptr<qos::BandwidthMonitor> monitor;
  std::unique_ptr<qos::QosRegFile> regfile;
};

/// The platform.
class Soc {
 public:
  explicit Soc(SocConfig cfg);

  Soc(const Soc&) = delete;
  Soc& operator=(const Soc&) = delete;

  [[nodiscard]] const SocConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::TimePs now() const { return sim_.now(); }

  [[nodiscard]] axi::Interconnect& xbar() { return *xbar_; }
  /// Channel \p i's memory controller (most platforms have just one).
  [[nodiscard]] dram::Controller& dram(std::size_t i = 0) {
    return *drams_.at(i);
  }
  [[nodiscard]] const dram::Controller& dram(std::size_t i = 0) const {
    return *drams_.at(i);
  }
  [[nodiscard]] std::size_t dram_channel_count() const {
    return drams_.size();
  }
  [[nodiscard]] cpu::CpuCluster& cluster() { return *cluster_; }

  /// Master port 0 (the CPU cluster's path to memory).
  [[nodiscard]] axi::MasterPort& cpu_port() { return xbar_->master(0); }
  /// Accelerator port \p i in [0, accel_ports).
  [[nodiscard]] axi::MasterPort& accel_port(std::size_t i) {
    return xbar_->master(1 + i);
  }
  [[nodiscard]] std::size_t accel_port_count() const {
    return cfg_.accel_ports;
  }

  /// QoS block of crossbar master \p master_index (0 = CPU, 1.. = HP).
  /// Only available when cfg.qos_blocks.
  [[nodiscard]] QosBlock& qos_block(std::size_t master_index);
  [[nodiscard]] qos::QosRegFile& regfile(std::size_t master_index) {
    return *qos_block(master_index).regfile;
  }

  /// Adds a CPU core running \p kernel.
  cpu::CpuCore& add_core(cpu::CoreConfig cfg,
                         std::unique_ptr<cpu::Kernel> kernel);

  /// Adds a traffic generator on accelerator port \p accel_index.
  wl::TrafficGen& add_traffic_gen(std::size_t accel_index,
                                  wl::TrafficGenConfig cfg);

  /// Adds one request-serving tenant on HP port \p spec.port. The tenant
  /// takes over the port's completion handler, so each serving port is
  /// exclusive: one tenant per port, and no TrafficGen on it (checked).
  /// \p seed is the tenant's op-buffer seed (see serving_tenant_seed).
  wl::ServingTenant& add_serving_tenant(wl::ServingTenantSpec spec,
                                        sim::TimePs duration_ps,
                                        std::uint64_t seed);

  /// Instantiates a whole serving scenario: one tenant per spec entry,
  /// each seeded with serving_tenant_seed(spec.seed, run_seed, index) so
  /// op buffers are byte-identical for equal (spec, run) on any --jobs
  /// schedule. Call before running.
  void add_serving(const wl::ServingSpec& spec, std::uint64_t run_seed);

  [[nodiscard]] std::size_t serving_tenant_count() const {
    return serving_.size();
  }
  [[nodiscard]] wl::ServingTenant& serving_tenant(std::size_t i) {
    return *serving_.at(i);
  }

  /// Inserts a DDRC-level global throttle between the crossbar and the
  /// memory controller (the coarse commercial-knob baseline; EXP11).
  /// Call at most once, before running.
  qos::DdrcThrottle& insert_ddrc_throttle(qos::DdrcThrottleConfig cfg);

  /// Adds a per-bank regulator gating crossbar master \p master_index
  /// (0 = CPU, 1.. = HP), decoding each line with the DRAM channel's
  /// mapping policy. Composes with the port's aggregate QoS block (both
  /// gates must allow). Single-channel platforms only: with channel
  /// interleaving the line's bank depends on which channel it routes to.
  /// At most one per master, added before running.
  /// \p cfg carries the per-bank budgets (RegulatorConfig::
  /// bank_budget_bytes); its default name becomes "<port>.bankreg".
  qos::Regulator& add_bank_regulator(std::size_t master_index,
                                     qos::RegulatorConfig cfg);
  /// The per-bank regulator on \p master_index, or nullptr.
  [[nodiscard]] qos::Regulator* bank_regulator(std::size_t master_index);

  /// Instantiates one per-bank regulator per spec entry (spec ports index
  /// the HP ports, matching serving specs) with the spec's window/kind and
  /// per-bank budgets. Returns the number of regulators added.
  std::size_t apply_bank_budgets(const qos::BankBudgetSpec& spec);

  // --- fault injection ---------------------------------------------------

  /// Arms \p plan against the whole platform: crossbar response path,
  /// every master port, every QoS block's regulator and monitor, and every
  /// DRAM channel. \p run_seed is the per-run/per-job seed mixed into the
  /// plan's RNG streams. Call at most once, before running; an empty plan
  /// wires nothing and perturbs nothing.
  fault::FaultInjector& arm_faults(fault::FaultPlan plan,
                                   std::uint64_t run_seed);
  /// The armed injector, or nullptr when no faults were armed.
  [[nodiscard]] fault::FaultInjector* faults() { return injector_.get(); }

  /// Attaches a degraded-mode watchdog to master \p master_index's QoS
  /// block (requires cfg.qos_blocks). The watchdog forces the regulator
  /// onto cfg.fallback_budget_bytes whenever the block's monitor feed goes
  /// stale or saturates — the hardening counterpart to arm_faults.
  qos::RegulatorWatchdog& add_regulator_watchdog(
      std::size_t master_index, qos::RegulatorWatchdogConfig cfg);

  /// Runs for \p delta picoseconds.
  void run_for(sim::TimePs delta) { sim_.run_for(delta); }
  /// Runs until absolute time \p t.
  void run_until(sim::TimePs t) { sim_.run_until(t); }

  /// Runs until every bounded-iteration core halted, checking every
  /// \p poll_ps, up to \p deadline. Returns true when all finished.
  bool run_until_cores_finished(sim::TimePs deadline,
                                sim::TimePs poll_ps = 10 * sim::kPsPerUs);
  /// Runs until every serving tenant drained (no arrival left, nothing
  /// queued or in flight), checking every 100 us, up to \p deadline.
  /// Returns true when all drained. The check step sets the time the run
  /// stops at, so it is fixed: every serving bandwidth figure depends on it.
  bool run_until_serving_drained(sim::TimePs deadline);

  // --- telemetry ---------------------------------------------------------

  /// The platform's telemetry hub (metrics registry + optional trace
  /// sink + per-port lifecycle tracers).
  [[nodiscard]] telemetry::Hub& telemetry() { return telemetry_; }

  /// The host profiler, or nullptr when cfg.profile is off.
  [[nodiscard]] telemetry::HostProfiler* profiler() {
    return telemetry_.profiler();
  }
  [[nodiscard]] const telemetry::HostProfiler* profiler() const {
    return telemetry_.profiler();
  }

  /// Opens the Chrome-trace sink at \p path and wires every component to
  /// it: ports (per-transaction spans), DRAM channels (CAS bursts, queue
  /// occupancy), QoS blocks (throttle intervals, token credit, window
  /// bandwidth) and traffic generators, plus the simulation-kernel
  /// self-profiling sampler. \p filter selects categories
  /// (see telemetry::parse_categories; "" = everything).
  void open_trace(const std::string& path, const std::string& filter = "");

  /// Attaches per-hop latency histograms to every master port (implied by
  /// open_trace; call directly for lifecycle metrics without a trace).
  void enable_lifecycle_metrics();

  /// Turns on interference attribution: registers every master with the
  /// hub's AttributionEngine and wires the blame hooks into the crossbar,
  /// its ports and every DRAM channel. \p window_ps sets the blame-matrix
  /// accounting window. Call before running (and at most once); order
  /// relative to open_trace() does not matter.
  telemetry::AttributionEngine& enable_attribution(
      sim::TimePs window_ps = 100 * sim::kPsPerUs);
  /// The engine, or nullptr when attribution is disabled.
  [[nodiscard]] telemetry::AttributionEngine* attribution() {
    return telemetry_.attribution();
  }

  /// Turns on windowed time-series capture: creates the hub's recorder
  /// and registers the standard platform series — per-port granted bytes
  /// and running read p99, per-QoS-block token credit / programmed budget
  /// / throttle time / monitored bytes, DRAM payload bytes (aggregate and
  /// per channel), per-core iteration progress, per-generator completed
  /// bytes, and per-victim attribution stall time when attribution is
  /// enabled. Series are admitted through cfg.filter (comma-separated
  /// globs; "" = all). Call AFTER workload setup (cores and traffic
  /// generators present at call time are probed) and at most once; the
  /// recorder is started before returning.
  telemetry::TimeSeriesRecorder& enable_timeseries(
      telemetry::TimeSeriesConfig cfg);
  /// The recorder, or nullptr when time-series capture is disabled.
  [[nodiscard]] telemetry::TimeSeriesRecorder* timeseries() {
    return telemetry_.timeseries();
  }

  /// Turns on the QoS decision journal: creates the hub's journal and
  /// wires every journaling component the platform owns (per-port
  /// regulators, armed fault injector, regulator watchdogs). Components
  /// added later through arm_faults()/add_regulator_watchdog() are wired
  /// at add time; externally-owned controllers (SoftMemguard,
  /// AdaptiveQosController, SlaWatchdog) attach via their own
  /// set_journal(). Call at most once.
  telemetry::DecisionJournal& enable_journal(std::size_t capacity = 65536);
  /// The journal, or nullptr when journaling is disabled.
  [[nodiscard]] telemetry::DecisionJournal* journal() {
    return telemetry_.journal();
  }

  /// Refreshes the hub's registry with a full platform snapshot (DRAM,
  /// ports, QoS, cores, generators, kernel self-profiling) and returns it.
  telemetry::MetricsRegistry& collect_metrics();

  /// Flushes trailing trace spans (still-shut regulator gates, parked
  /// masters) and closes the trace sink. Idempotent; call before reading
  /// the trace file.
  void finish_telemetry();

  /// Dumps platform statistics ("dram.payload_bytes",
  /// "port.cpu.read_p99_ps", ...) into \p out. Legacy view: flattens the
  /// scalar metrics of collect_metrics().
  void collect_stats(sim::StatsRegistry& out) const;

  /// Measured DRAM payload bandwidth since t=0 (bytes/second).
  [[nodiscard]] double dram_bandwidth_bps() const;

 private:
  SocConfig cfg_;
  sim::Simulator sim_;
  telemetry::Hub telemetry_;
  sim::ClockDomain cpu_clk_;
  sim::ClockDomain fabric_clk_;
  sim::ClockDomain xbar_clk_;
  sim::ClockDomain dram_clk_;
  std::unique_ptr<axi::Interconnect> xbar_;
  std::vector<std::unique_ptr<dram::Controller>> drams_;
  std::unique_ptr<axi::ChannelRouter> channel_router_;
  std::unique_ptr<qos::DdrcThrottle> ddrc_throttle_;
  std::unique_ptr<cpu::CpuCluster> cluster_;
  std::vector<QosBlock> qos_blocks_;
  std::vector<std::unique_ptr<wl::TrafficGen>> traffic_gens_;
  std::vector<std::unique_ptr<wl::ServingTenant>> serving_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<qos::RegulatorWatchdog>> watchdogs_;
  /// Per-master per-bank regulators, indexed by crossbar master (sparse:
  /// nullptr where none was added).
  std::vector<std::unique_ptr<qos::Regulator>> bank_regs_;
};

}  // namespace fgqos::soc

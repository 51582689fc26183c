/// \file hub.hpp
/// \brief Per-platform telemetry hub: registry + trace sink + lifecycle.
///
/// One Hub per Soc (or per hand-assembled platform) owns the metrics
/// registry, the optional Chrome-trace sink and the per-port lifecycle
/// tracers, and runs the simulation-kernel self-profiling sampler. All
/// instrumentation is opt-in and near-zero cost when disabled: components
/// carry a nullable TraceWriter pointer, and lifecycle observers are only
/// attached to ports on request.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "axi/port.hpp"
#include "sim/simulator.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace fgqos::telemetry {

/// The hub.
class Hub {
 public:
  Hub() = default;

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Opens the Chrome-trace sink. \p filter is a comma-separated category
  /// list (see parse_categories; "" = everything). At most one trace per
  /// hub; throws ConfigError on a second call.
  void open_trace(const std::string& path, const std::string& filter = "");

  /// The sink, or nullptr when tracing is disabled.
  [[nodiscard]] TraceWriter* trace() { return trace_.get(); }
  [[nodiscard]] bool tracing() const { return trace_ != nullptr; }

  /// Returns the lifecycle tracer observing \p port, attaching one on
  /// first use; wires it to the trace sink when open.
  TxnLifecycleTracer& lifecycle(axi::MasterPort& port);

  /// Creates the interference-attribution engine with blame windows of
  /// \p window_ps (at most one per hub; throws ConfigError on a second
  /// call). Wires it to the trace sink when one is already open. The
  /// caller still registers masters and hands the engine to the fabric.
  AttributionEngine& enable_attribution(sim::TimePs window_ps);
  /// The engine, or nullptr when attribution is disabled.
  [[nodiscard]] AttributionEngine* attribution() { return attribution_.get(); }

  /// Creates the windowed time-series recorder (at most one per hub;
  /// throws ConfigError on a second call). The caller registers series
  /// (probes) and calls start() once assembly is done.
  TimeSeriesRecorder& enable_timeseries(sim::Simulator& sim,
                                        TimeSeriesConfig cfg);
  /// The recorder, or nullptr when time-series capture is disabled.
  [[nodiscard]] TimeSeriesRecorder* timeseries() { return timeseries_.get(); }

  /// Creates the QoS decision journal (at most one per hub; throws
  /// ConfigError on a second call). Wires it to the trace sink when one is
  /// already open so entries mirror as trace instants.
  DecisionJournal& enable_journal(std::size_t capacity = 65536);
  /// The journal, or nullptr when journaling is disabled.
  [[nodiscard]] DecisionJournal* journal() { return journal_.get(); }

  /// Creates the host-side hot-path profiler and attaches it to \p sim
  /// (at most one per hub; throws ConfigError on a second call). Must run
  /// before components register tags, i.e. before platform assembly.
  HostProfiler& enable_profiler(sim::Simulator& sim);
  /// The profiler, or nullptr when host profiling is disabled.
  [[nodiscard]] HostProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const HostProfiler* profiler() const {
    return profiler_.get();
  }

  /// Starts the kernel self-profiling sampler: every \p period_ps it
  /// records event-queue occupancy and event/tick dispatch rates as
  /// counter tracks (category "kernel") and registry metrics.
  void start_kernel_sampling(sim::Simulator& sim,
                             sim::TimePs period_ps = 100 * sim::kPsPerUs);

  /// Flushes and closes the trace sink (idempotent). Lifecycle metrics
  /// stay available afterwards.
  void finish();

 private:
  void kernel_sample(sim::Simulator& sim, sim::TimePs period_ps);

  MetricsRegistry metrics_;
  std::unique_ptr<TraceWriter> trace_;
  std::unique_ptr<AttributionEngine> attribution_;
  std::unique_ptr<TimeSeriesRecorder> timeseries_;
  std::unique_ptr<DecisionJournal> journal_;
  std::unique_ptr<HostProfiler> profiler_;
  std::vector<std::unique_ptr<TxnLifecycleTracer>> lifecycles_;
  std::vector<const axi::MasterPort*> lifecycle_ports_;
  TrackId kernel_track_;
  sim::EventQueue::RecurringId sample_event_ = 0;
  bool kernel_sampling_ = false;
  std::uint64_t last_events_ = 0;
  std::uint64_t last_ticks_ = 0;
};

}  // namespace fgqos::telemetry

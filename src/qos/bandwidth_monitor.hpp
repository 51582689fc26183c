/// \file bandwidth_monitor.hpp
/// \brief Tightly-coupled per-port bandwidth monitor.
///
/// The monitor observes every granted line in the same cycle the grant
/// occurs (it is wired as a TxnObserver on the supervised MasterPort) and
/// maintains byte counts per configurable window. A programmable threshold
/// fires a callback in the *same cycle* the budget is crossed — this
/// zero-latency observation is the "tightly-coupled" property the paper
/// contrasts with PMU sampling from a periodic OS timer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "axi/port.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "telemetry/trace.hpp"

namespace fgqos::qos {

/// Monitor configuration.
struct MonitorConfig {
  std::string name = "monitor";
  /// Accounting window; counters reset at each boundary.
  sim::TimePs window_ps = sim::kPsPerUs;
  /// When true, every closed window's byte count is kept for later
  /// inspection (regulation-accuracy experiments).
  bool keep_window_trace = false;
  /// Count reads, writes or both.
  bool count_reads = true;
  bool count_writes = true;
};

/// Callback fired when the in-window byte count crosses the threshold.
/// Arguments: time of crossing, bytes counted in the window so far.
using ThresholdFn = std::function<void(sim::TimePs, std::uint64_t)>;

/// The monitor. Attach with `port.add_observer(monitor)`.
class BandwidthMonitor final : public axi::TxnObserver {
 public:
  BandwidthMonitor(sim::Simulator& sim, MonitorConfig cfg);

  [[nodiscard]] const MonitorConfig& config() const { return cfg_; }

  /// Arms the threshold: \p fn fires once per window, in the same cycle
  /// the counted bytes reach \p bytes. Pass 0 to disarm.
  void set_threshold(std::uint64_t bytes, ThresholdFn fn);

  /// Changes the window length; takes effect immediately (the current
  /// window is closed at the next boundary of the new length).
  void set_window(sim::TimePs window_ps);

  /// Total bytes observed since construction (or last reset_totals()).
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  /// Bytes observed in the currently open window.
  [[nodiscard]] std::uint64_t window_bytes() const { return window_bytes_; }
  /// Bytes of the last fully closed window.
  [[nodiscard]] std::uint64_t last_window_bytes() const {
    return last_window_bytes_;
  }
  /// Number of windows closed so far.
  [[nodiscard]] std::uint64_t windows_closed() const {
    return windows_closed_;
  }

  /// Per-window trace (only populated when keep_window_trace).
  [[nodiscard]] const std::vector<std::uint64_t>& window_trace() const {
    return trace_;
  }

  /// Clears totals and the trace (window phase is preserved).
  void reset_totals();

  /// Attaches the Chrome-trace sink (nullptr detaches): each window close
  /// samples a "window_bytes" counter series and each threshold crossing
  /// emits an instant event, on a track named after this monitor.
  void set_trace(telemetry::TraceWriter* writer);

  /// Fault seam: when set and true at a boundary, the boundary passes
  /// without publishing a sample — last_window_bytes() goes stale and
  /// windows_closed() stops advancing (a frozen sample register). The
  /// internal byte counter keeps counting.
  using FreezeFaultFn = std::function<bool(sim::TimePs)>;
  void set_freeze_fault(FreezeFaultFn fn) { freeze_fault_ = std::move(fn); }

  /// Fault seam: per-grant saturation cap for the window byte counter
  /// (0 = unbounded). A saturated counter under-reports heavy traffic,
  /// the classic failure a watchdog must catch.
  using SaturationFaultFn = std::function<std::uint64_t(sim::TimePs)>;
  void set_saturation_fault(SaturationFaultFn fn) {
    saturation_fault_ = std::move(fn);
  }

  /// Grants clamped by an injected saturation fault.
  [[nodiscard]] std::uint64_t saturated_grants() const {
    return saturated_grants_;
  }

  // TxnObserver
  void on_issue(const axi::Transaction& txn, sim::TimePs now) override;
  void on_grant(const axi::LineRequest& line, sim::TimePs now) override;
  void on_complete(const axi::Transaction& txn, sim::TimePs now) override;

 private:
  void schedule_boundary();
  void on_boundary(std::uint64_t epoch);
  void close_window(sim::TimePs now);

  sim::Simulator& sim_;
  MonitorConfig cfg_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t last_window_bytes_ = 0;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t threshold_ = 0;
  bool threshold_fired_ = false;
  ThresholdFn threshold_fn_;
  std::vector<std::uint64_t> trace_;
  std::uint64_t epoch_ = 0;  ///< invalidates boundary events on set_window
  FreezeFaultFn freeze_fault_;
  SaturationFaultFn saturation_fault_;
  std::uint64_t saturated_grants_ = 0;
  sim::TimePs window_start_ = 0;
  sim::EventQueue::RecurringId boundary_event_ = 0;
  telemetry::TraceWriter* trace_writer_ = nullptr;
  telemetry::TrackId track_;
};

}  // namespace fgqos::qos

/// \file latency_monitor.hpp
/// \brief Tightly-coupled per-port transaction-latency monitor.
///
/// Complements the bandwidth monitor: tracks each read transaction from
/// issue to completion (writes are ignored) and maintains a windowed
/// latency summary (max and running mean per window, full histogram
/// overall). A programmable threshold fires in the same event that
/// completes the offending transaction — the hardware analogue is a
/// comparator on the in-flight timer. Used by the closed-loop
/// AdaptiveQosController.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "axi/port.hpp"
#include "sim/histogram.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fgqos::qos {

/// Latency monitor configuration.
struct LatencyMonitorConfig {
  std::string name = "lat_monitor";
  /// Summary window; per-window max/mean reset at each boundary.
  sim::TimePs window_ps = 100 * sim::kPsPerUs;
};

/// Fired when a completing transaction's latency crosses the threshold
/// (at most once per window). Arguments: completion time, latency.
using LatencyThresholdFn = std::function<void(sim::TimePs, sim::TimePs)>;

/// The monitor. Attach with `port.add_observer(monitor)`.
class LatencyMonitor final : public axi::TxnObserver {
 public:
  LatencyMonitor(sim::Simulator& sim, LatencyMonitorConfig cfg);

  [[nodiscard]] const LatencyMonitorConfig& config() const { return cfg_; }

  /// Arms the threshold; 0 disarms.
  void set_threshold(sim::TimePs latency_ps, LatencyThresholdFn fn);

  /// Latency histogram over the whole run (ps).
  [[nodiscard]] const sim::Histogram& histogram() const { return hist_; }
  /// Worst latency observed in the last closed window.
  [[nodiscard]] sim::TimePs last_window_max_ps() const {
    return last_window_max_;
  }
  /// Mean latency of the last closed window (0 when it was empty).
  [[nodiscard]] double last_window_mean_ps() const {
    return last_window_mean_;
  }

  // TxnObserver
  void on_issue(const axi::Transaction&, sim::TimePs) override {}
  void on_grant(const axi::LineRequest&, sim::TimePs) override {}
  void on_complete(const axi::Transaction& txn, sim::TimePs now) override;

 private:
  void on_boundary(std::uint64_t epoch);
  void schedule_boundary();

  sim::Simulator& sim_;
  LatencyMonitorConfig cfg_;
  sim::EventQueue::RecurringId boundary_event_ = 0;
  sim::Histogram hist_;
  sim::TimePs window_max_ = 0;
  std::uint64_t window_count_ = 0;
  std::uint64_t window_sum_ = 0;
  sim::TimePs last_window_max_ = 0;
  double last_window_mean_ = 0.0;
  sim::TimePs threshold_ = 0;
  bool threshold_fired_ = false;
  LatencyThresholdFn threshold_fn_;
  std::uint64_t epoch_ = 0;
};

}  // namespace fgqos::qos

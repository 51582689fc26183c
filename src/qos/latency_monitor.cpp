#include "qos/latency_monitor.hpp"

#include "util/config_error.hpp"

namespace fgqos::qos {

LatencyMonitor::LatencyMonitor(sim::Simulator& sim, LatencyMonitorConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  config_check(cfg_.window_ps > 0, "LatencyMonitor: window must be > 0");
  boundary_event_ = sim_.make_recurring_event(
      [this](std::uint64_t epoch) { on_boundary(epoch); },
      sim_.profile_tag("qos.latency_monitor"));
  schedule_boundary();
}

void LatencyMonitor::schedule_boundary() {
  sim_.schedule_recurring(boundary_event_, sim_.now() + cfg_.window_ps,
                          epoch_);
}

void LatencyMonitor::on_boundary(std::uint64_t epoch) {
  if (epoch != epoch_) {
    return;
  }
  last_window_max_ = window_max_;
  last_window_mean_ =
      window_count_ == 0
          ? 0.0
          : static_cast<double>(window_sum_) /
                static_cast<double>(window_count_);
  window_max_ = 0;
  window_sum_ = 0;
  window_count_ = 0;
  threshold_fired_ = false;
  schedule_boundary();
}

void LatencyMonitor::set_threshold(sim::TimePs latency_ps,
                                   LatencyThresholdFn fn) {
  threshold_ = latency_ps;
  threshold_fn_ = std::move(fn);
  threshold_fired_ = false;
}

void LatencyMonitor::on_complete(const axi::Transaction& txn,
                                 sim::TimePs now) {
  if (txn.dir == axi::Dir::kWrite) {
    return;
  }
  const sim::TimePs lat = txn.latency();
  hist_.record(lat);
  window_max_ = std::max(window_max_, lat);
  window_sum_ += lat;
  ++window_count_;
  if (threshold_ > 0 && !threshold_fired_ && lat >= threshold_ &&
      threshold_fn_) {
    threshold_fired_ = true;
    threshold_fn_(now, lat);
  }
}

}  // namespace fgqos::qos

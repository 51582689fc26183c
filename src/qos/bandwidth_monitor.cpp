#include "qos/bandwidth_monitor.hpp"

#include "util/config_error.hpp"

namespace fgqos::qos {

BandwidthMonitor::BandwidthMonitor(sim::Simulator& sim, MonitorConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  config_check(cfg_.window_ps > 0, "BandwidthMonitor: window must be > 0");
  config_check(cfg_.count_reads || cfg_.count_writes,
               "BandwidthMonitor: must count at least one direction");
  window_start_ = sim_.now();
  boundary_event_ = sim_.make_recurring_event(
      [this](std::uint64_t epoch) { on_boundary(epoch); },
      sim_.profile_tag("qos.monitor"));
  schedule_boundary();
}

void BandwidthMonitor::schedule_boundary() {
  sim_.schedule_recurring(boundary_event_, window_start_ + cfg_.window_ps,
                          epoch_);
}

void BandwidthMonitor::close_window(sim::TimePs now) {
  last_window_bytes_ = window_bytes_;
  if (cfg_.keep_window_trace) {
    trace_.push_back(window_bytes_);
  }
  window_bytes_ = 0;
  threshold_fired_ = false;
  ++windows_closed_;
  window_start_ = now;
  if (trace_writer_ != nullptr) {
    trace_writer_->counter(track_, "window_bytes", now,
                           static_cast<double>(last_window_bytes_));
  }
}

void BandwidthMonitor::on_boundary(std::uint64_t epoch) {
  if (epoch != epoch_) {
    return;  // stale event from before a set_window() reconfiguration
  }
  if (freeze_fault_ && freeze_fault_(sim_.now())) {
    // Frozen sample register: the boundary passes without publishing.
    // The cadence continues so the fault can thaw at a later boundary.
    window_start_ = sim_.now();
    schedule_boundary();
    return;
  }
  close_window(sim_.now());
  schedule_boundary();
}

void BandwidthMonitor::set_threshold(std::uint64_t bytes, ThresholdFn fn) {
  threshold_ = bytes;
  threshold_fn_ = std::move(fn);
  threshold_fired_ = false;
}

void BandwidthMonitor::set_window(sim::TimePs window_ps) {
  config_check(window_ps > 0, "BandwidthMonitor: window must be > 0");
  cfg_.window_ps = window_ps;
  ++epoch_;
  // Bytes counted in the partially-elapsed window must not silently
  // vanish: close the partial window (fold it into last_window_bytes_,
  // the trace and the counter series) rather than zeroing the count.
  if (window_bytes_ > 0) {
    close_window(sim_.now());
  } else {
    window_start_ = sim_.now();
    threshold_fired_ = false;
  }
  schedule_boundary();
}

void BandwidthMonitor::reset_totals() {
  total_bytes_ = 0;
  trace_.clear();
  windows_closed_ = 0;
}

void BandwidthMonitor::set_trace(telemetry::TraceWriter* writer) {
  trace_writer_ = writer;
  track_ = telemetry::TrackId{};
  if (trace_writer_ != nullptr) {
    track_ = trace_writer_->track(telemetry::Cat::kQos, cfg_.name);
    if (!track_.valid()) {
      trace_writer_ = nullptr;  // qos category filtered out
    }
  }
}

void BandwidthMonitor::on_issue(const axi::Transaction&, sim::TimePs) {}

void BandwidthMonitor::on_grant(const axi::LineRequest& line,
                                sim::TimePs now) {
  if (line.is_write ? !cfg_.count_writes : !cfg_.count_reads) {
    return;
  }
  total_bytes_ += line.bytes;
  window_bytes_ += line.bytes;
  if (saturation_fault_) {
    const std::uint64_t cap = saturation_fault_(now);
    if (cap > 0 && window_bytes_ > cap) {
      // Saturated hardware counter: the window count pegs at the cap
      // (totals stay exact — only the sampled register is faulty).
      window_bytes_ = cap;
      ++saturated_grants_;
    }
  }
  if (threshold_ > 0 && !threshold_fired_ && window_bytes_ >= threshold_ &&
      threshold_fn_) {
    threshold_fired_ = true;
    if (trace_writer_ != nullptr) {
      trace_writer_->instant(track_, "threshold", now);
    }
    // Same-cycle delivery: this is the tightly-coupled observation path.
    threshold_fn_(now, window_bytes_);
  }
}

void BandwidthMonitor::on_complete(const axi::Transaction&, sim::TimePs) {}

}  // namespace fgqos::qos

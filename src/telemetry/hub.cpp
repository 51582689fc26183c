#include "telemetry/hub.hpp"

#include <utility>

#include "util/config_error.hpp"

namespace fgqos::telemetry {

void Hub::open_trace(const std::string& path, const std::string& filter) {
  config_check(trace_ == nullptr, "Hub: trace already open");
  trace_ = std::make_unique<TraceWriter>(path, parse_categories(filter));
  // Wire tracers attached before the sink existed.
  for (auto& lc : lifecycles_) {
    lc->set_trace(trace_.get());
  }
  if (attribution_ != nullptr) {
    attribution_->set_trace(trace_.get());
  }
  if (journal_ != nullptr) {
    journal_->set_trace(trace_.get());
  }
}

AttributionEngine& Hub::enable_attribution(sim::TimePs window_ps) {
  config_check(attribution_ == nullptr, "Hub: attribution already enabled");
  attribution_ = std::make_unique<AttributionEngine>(metrics_, window_ps);
  return *attribution_;
}

TimeSeriesRecorder& Hub::enable_timeseries(sim::Simulator& sim,
                                           TimeSeriesConfig cfg) {
  config_check(timeseries_ == nullptr, "Hub: time-series already enabled");
  timeseries_ = std::make_unique<TimeSeriesRecorder>(sim, std::move(cfg));
  return *timeseries_;
}

HostProfiler& Hub::enable_profiler(sim::Simulator& sim) {
  config_check(profiler_ == nullptr, "Hub: profiler already enabled");
  profiler_ = std::make_unique<HostProfiler>();
  profiler_->attach(sim);
  return *profiler_;
}

DecisionJournal& Hub::enable_journal(std::size_t capacity) {
  config_check(journal_ == nullptr, "Hub: journal already enabled");
  journal_ = std::make_unique<DecisionJournal>(capacity);
  if (trace_ != nullptr) {
    journal_->set_trace(trace_.get());
  }
  return *journal_;
}

TxnLifecycleTracer& Hub::lifecycle(axi::MasterPort& port) {
  for (std::size_t i = 0; i < lifecycle_ports_.size(); ++i) {
    if (lifecycle_ports_[i] == &port) {
      return *lifecycles_[i];
    }
  }
  auto tracer = std::make_unique<TxnLifecycleTracer>(metrics_, port.name());
  if (trace_ != nullptr) {
    tracer->set_trace(trace_.get());
  }
  port.add_observer(*tracer);
  lifecycles_.push_back(std::move(tracer));
  lifecycle_ports_.push_back(&port);
  return *lifecycles_.back();
}

void Hub::start_kernel_sampling(sim::Simulator& sim, sim::TimePs period_ps) {
  config_check(period_ps > 0, "Hub: sampling period must be > 0");
  if (kernel_sampling_) {
    return;
  }
  kernel_sampling_ = true;
  if (trace_ != nullptr) {
    kernel_track_ = trace_->track(Cat::kKernel, "sim");
  }
  sample_event_ = sim.make_recurring_event(
      [this, &sim, period_ps](std::uint64_t) { kernel_sample(sim, period_ps); },
      sim.profile_tag("telemetry.kernel_sampler"));
  last_events_ = sim.events_dispatched();
  last_ticks_ = sim.tick_count();
  // Baseline sample so even runs shorter than one period get the counter
  // tracks (and viewers get a t=start anchor for each series).
  kernel_sample(sim, period_ps);
}

void Hub::kernel_sample(sim::Simulator& sim, sim::TimePs period_ps) {
  const std::uint64_t events = sim.events_dispatched();
  const std::uint64_t ticks = sim.tick_count();
  if (trace_ != nullptr && kernel_track_.valid()) {
    trace_->counter(kernel_track_, "event_queue", sim.now(),
                    static_cast<double>(sim.event_queue_size()));
    trace_->counter(kernel_track_, "events_per_sample", sim.now(),
                    static_cast<double>(events - last_events_));
    trace_->counter(kernel_track_, "ticks_per_sample", sim.now(),
                    static_cast<double>(ticks - last_ticks_));
  }
  last_events_ = events;
  last_ticks_ = ticks;
  sim.schedule_recurring(sample_event_, sim.now() + period_ps);
}

void Hub::finish() {
  if (trace_ != nullptr) {
    trace_->finish();
  }
}

}  // namespace fgqos::telemetry

#include "qos/ddrc_throttle.hpp"

#include "util/config_error.hpp"

namespace fgqos::qos {

DdrcThrottle::DdrcThrottle(sim::Simulator& sim, DdrcThrottleConfig cfg,
                           axi::SlaveIf& inner, axi::ResponseSink& sink)
    : sim_(sim),
      cfg_(std::move(cfg)),
      inner_(&inner),
      sink_(&sink),
      read_bucket_(budget_for_rate(cfg_.read_bps, cfg_.window_ps),
                   ReplenishKind::kFixedWindow),
      write_bucket_(budget_for_rate(cfg_.write_bps, cfg_.window_ps),
                    ReplenishKind::kFixedWindow) {
  config_check(cfg_.window_ps > 0, "DdrcThrottle: window must be > 0");
  window_event_ = sim_.make_recurring_event(
      [this](std::uint64_t) { on_window(); },
      sim_.profile_tag("qos.ddrc_throttle"));
  sim_.schedule_recurring(window_event_, sim_.now() + cfg_.window_ps);
}

void DdrcThrottle::on_window() {
  read_bucket_.replenish();
  write_bucket_.replenish();
  sim_.schedule_recurring(window_event_, sim_.now() + cfg_.window_ps);
  sink_->space_freed();
}

void DdrcThrottle::set_rates(double read_bps, double write_bps) {
  cfg_.read_bps = read_bps;
  cfg_.write_bps = write_bps;
  read_bucket_.set_budget(budget_for_rate(read_bps, cfg_.window_ps));
  write_bucket_.set_budget(budget_for_rate(write_bps, cfg_.window_ps));
  sink_->space_freed();
}

bool DdrcThrottle::can_accept(const axi::LineRequest& line,
                              sim::TimePs now) const {
  const bool throttled = line.is_write ? cfg_.write_bps > 0 : cfg_.read_bps > 0;
  if (throttled) {
    const TokenBucket& bucket = line.is_write ? write_bucket_ : read_bucket_;
    if (!bucket.can_spend()) {
      return false;
    }
  }
  return inner_->can_accept(line, now);
}

void DdrcThrottle::accept(axi::LineRequest line, sim::TimePs now) {
  const bool throttled = line.is_write ? cfg_.write_bps > 0 : cfg_.read_bps > 0;
  if (throttled) {
    TokenBucket& bucket = line.is_write ? write_bucket_ : read_bucket_;
    bucket.spend(line.bytes);
  }
  inner_->accept(line, now);
}

}  // namespace fgqos::qos

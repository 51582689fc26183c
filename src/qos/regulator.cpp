#include "qos/regulator.hpp"

#include <algorithm>

#include "telemetry/journal.hpp"
#include "util/config_error.hpp"

namespace fgqos::qos {

Regulator::Regulator(sim::Simulator& sim, RegulatorConfig cfg,
                     std::optional<dram::AddressMapper> bank_map)
    : sim_(sim), cfg_(std::move(cfg)), bank_map_(std::move(bank_map)) {
  config_check(cfg_.window_ps > 0, "Regulator: window must be > 0");
  config_check(bank_map_.has_value() != cfg_.bank_budget_bytes.empty(),
               "Regulator: per-bank budgets need a bank map and vice versa");
  if (bank_map_) {
    config_check(cfg_.bank_budget_bytes.size() <= bank_map_->banks(),
                 "Regulator: more budgets than DRAM banks");
    cfg_.bank_budget_bytes.resize(bank_map_->banks(), 0);
    for (const std::uint64_t budget : cfg_.bank_budget_bytes) {
      buckets_.emplace_back(
          TokenBucket(budget, cfg_.kind, cfg_.max_accumulation_windows),
          budget != 0);
    }
  } else {
    buckets_.emplace_back(TokenBucket(cfg_.budget_bytes, cfg_.kind,
                                      cfg_.max_accumulation_windows),
                          true);
  }
  window_start_ = sim_.now();
  prof_tag_ = sim_.profile_tag("qos.regulator");
  replenish_event_ = sim_.make_recurring_event(
      [this](std::uint64_t epoch) { on_replenish(epoch); }, prof_tag_);
  schedule_replenish();
}

RegulatorStats Regulator::stats() const {
  RegulatorStats sum;
  for (const Bucket& b : buckets_) {
    sum.exhausted_windows += b.stats.exhausted_windows;
    sum.throttled_ps += b.stats.throttled_ps;
    sum.regulated_bytes += b.stats.regulated_bytes;
    if (b.stats.last_exhausted_at != sim::kTimeNever &&
        (sum.last_exhausted_at == sim::kTimeNever ||
         b.stats.last_exhausted_at > sum.last_exhausted_at)) {
      sum.last_exhausted_at = b.stats.last_exhausted_at;
    }
    sum.max_overshoot_bytes =
        std::max(sum.max_overshoot_bytes, b.stats.max_overshoot_bytes);
  }
  sum.replenish_irqs_dropped = irqs_dropped_;
  sum.replenish_irqs_delayed = irqs_delayed_;
  return sum;
}

bool Regulator::exhausted() const {
  return std::any_of(buckets_.begin(), buckets_.end(),
                     [](const Bucket& b) { return b.exhausted; });
}

void Regulator::schedule_replenish() {
  sim_.schedule_recurring(replenish_event_, window_start_ + cfg_.window_ps,
                          epoch_);
}

void Regulator::on_replenish(std::uint64_t epoch) {
  if (epoch != epoch_) {
    return;  // stale: window was reconfigured
  }
  const sim::TimePs verdict = irq_fault_ ? irq_fault_(sim_.now()) : 0;
  if (verdict == sim::kTimeNever) {
    // IRQ lost: the boundary passes without refilling. The window
    // cadence keeps running (the periodic timer itself is fine; only
    // this delivery vanished), so an exhausted gate stays shut until
    // the next surviving replenish.
    ++irqs_dropped_;
    if (journal_ != nullptr) {
      journal_->record(sim_.now(), cfg_.name, "replenish_drop",
                       static_cast<double>(tokens()),
                       static_cast<double>(tokens()), "irq_fault");
    }
  } else if (verdict > 0) {
    // Late delivery: the refill lands after the boundary; the next
    // boundary keeps its nominal cadence.
    ++irqs_delayed_;
    if (journal_ != nullptr) {
      journal_->record(sim_.now(), cfg_.name, "replenish_delay", 0.0,
                       static_cast<double>(verdict), "irq_fault",
                       "delay_ps=" + std::to_string(verdict));
    }
    const std::uint64_t guard = epoch_;
    sim_.schedule_after(
        verdict,
        [this, guard]() {
          if (guard == epoch_) {
            apply_replenish();
          }
        },
        prof_tag_);
  } else {
    apply_replenish();
  }
  begin_window();
}

void Regulator::begin_window() {
  for (Bucket& b : buckets_) {
    const std::uint64_t budget = b.credit.budget();
    if (b.window_bytes > budget) {
      b.stats.max_overshoot_bytes =
          std::max(b.stats.max_overshoot_bytes, b.window_bytes - budget);
    }
    b.window_bytes = 0;
  }
  ++window_;  // debits still in flight belong to the closed window
  window_start_ = sim_.now();
  schedule_replenish();
}

void Regulator::apply_replenish() {
  const sim::TimePs now = sim_.now();
  for (Bucket& b : buckets_) {
    if (b.exhausted) {
      close_throttle(b, now);
    }
    if (cfg_.observation_latency_ps > 0) {
      b.credit.forgive_debt();  // see RegulatorConfig::observation_latency_ps
    }
    b.credit.replenish();
  }
  trace_tokens(now);
  if (cfg_.enabled) {
    reopened();  // a disabled gate admits every line: nothing reopens
  }
}

void Regulator::close_throttle(Bucket& b, sim::TimePs now) {
  b.stats.throttled_ps += now - b.exhausted_since;
  trace_throttle_end(b, now);
  b.exhausted = false;
}

void Regulator::set_enabled(bool enabled) {
  const bool was_enabled = cfg_.enabled;
  if (was_enabled && !enabled) {
    for (Bucket& b : buckets_) {
      if (b.exhausted) {
        close_throttle(b, sim_.now());
      }
    }
  }
  if (journal_ != nullptr && was_enabled != enabled) {
    journal_->record(sim_.now(), cfg_.name, "set_enabled",
                     was_enabled ? 1.0 : 0.0, enabled ? 1.0 : 0.0,
                     "host_write");
  }
  cfg_.enabled = enabled;
  if (!was_enabled && enabled) {
    // Credit spent before the disable is still spent: a bucket that is
    // out of credit shuts the gate again right away.
    for (Bucket& b : buckets_) {
      reevaluate_exhaustion(b);
    }
  }
  reopened();
}

void Regulator::set_trace(telemetry::TraceWriter* writer) {
  trace_ = writer;
  track_ = telemetry::TrackId{};
  if (trace_ != nullptr) {
    track_ = trace_->track(telemetry::Cat::kQos, cfg_.name);
    if (!track_.valid()) {
      trace_ = nullptr;  // qos category filtered out
    }
  }
}

void Regulator::trace_throttle_end(const Bucket& b, sim::TimePs now) {
  if (trace_ != nullptr) {
    trace_->complete(track_, "throttled", b.exhausted_since,
                     now - b.exhausted_since);
    trace_->counter(track_, "tokens", now,
                    static_cast<double>(b.credit.tokens()));
  }
}

void Regulator::trace_tokens(sim::TimePs now) {
  if (trace_ != nullptr) {
    trace_->counter(track_, "tokens", now, static_cast<double>(tokens()));
  }
}

void Regulator::flush_trace(sim::TimePs now) {
  for (const Bucket& b : buckets_) {
    if (b.exhausted) {
      trace_throttle_end(b, now);
    }
  }
}

void Regulator::set_budget(std::uint64_t budget_bytes) {
  config_check(!bank_map_, "Regulator: set_budget on a bank-keyed gate");
  if (journal_ != nullptr && cfg_.budget_bytes != budget_bytes) {
    journal_->record(sim_.now(), cfg_.name, "set_budget",
                     static_cast<double>(cfg_.budget_bytes),
                     static_cast<double>(budget_bytes), "host_write");
  }
  buckets_[0].credit.set_budget(budget_bytes);
  cfg_.budget_bytes = budget_bytes;
  reevaluate_exhaustion(buckets_[0]);
  reopened();
}

void Regulator::set_bank_budget(std::uint32_t bank,
                                std::uint64_t budget_bytes) {
  config_check(bank < banks(), "Regulator: bank index out of range");
  if (journal_ != nullptr && cfg_.bank_budget_bytes[bank] != budget_bytes) {
    journal_->record(sim_.now(), cfg_.name, "set_bank_budget",
                     static_cast<double>(cfg_.bank_budget_bytes[bank]),
                     static_cast<double>(budget_bytes), "host_write",
                     "bank=" + std::to_string(bank));
  }
  Bucket& b = buckets_[bank];
  b.credit.set_budget(budget_bytes);
  b.limited = budget_bytes != 0;
  cfg_.bank_budget_bytes[bank] = budget_bytes;
  reevaluate_exhaustion(b);
  reopened();
}

void Regulator::set_window(sim::TimePs window_ps) {
  config_check(window_ps > 0, "Regulator: window must be > 0");
  if (journal_ != nullptr && cfg_.window_ps != window_ps) {
    journal_->record(sim_.now(), cfg_.name, "set_window",
                     static_cast<double>(cfg_.window_ps),
                     static_cast<double>(window_ps), "host_write");
  }
  cfg_.window_ps = window_ps;
  restart_schedule();
}

void Regulator::restart_window() {
  if (journal_ != nullptr) {
    journal_->record(sim_.now(), cfg_.name, "window_restart",
                     static_cast<double>(tokens()),
                     static_cast<double>(cfg_.budget_bytes), "host_write");
  }
  for (Bucket& b : buckets_) {
    b.credit.load();
  }
  restart_schedule();
  trace_tokens(sim_.now());
}

void Regulator::restart_schedule() {
  ++epoch_;  // the pending replenish event goes stale
  begin_window();
  for (Bucket& b : buckets_) {
    reevaluate_exhaustion(b);
  }
  reopened();
}

void Regulator::reevaluate_exhaustion(Bucket& b) {
  // Reprogramming BUDGET/WINDOW while the gate is shut must not let the
  // open throttle interval straddle the configuration change: the time
  // throttled under the old configuration is accounted (and traced) now,
  // and if the gate is still shut under the new configuration a fresh
  // interval starts at the reconfiguration edge. Without this, a window
  // restart while exhausted extends the pending interval by a full new
  // window and attributes it to the wrong configuration.
  const sim::TimePs now = sim_.now();
  const bool was_exhausted = b.exhausted;
  if (b.exhausted) {
    close_throttle(b, now);
  }
  if (cfg_.enabled && b.limited && !b.credit.can_spend()) {
    b.exhausted = true;
    b.exhausted_since = now;
    b.stats.last_exhausted_at = now;
    if (!was_exhausted) {
      // Newly shut by the reconfiguration itself (e.g. budget lowered
      // below the bytes already granted this window).
      ++b.stats.exhausted_windows;
    }
  }
}

void Regulator::set_rate(double bytes_per_second) {
  set_budget(budget_for_rate(bytes_per_second, cfg_.window_ps));
}

double Regulator::programmed_rate_bps() const {
  return static_cast<double>(cfg_.budget_bytes) * 1e12 /
         static_cast<double>(cfg_.window_ps);
}

bool Regulator::allow(const axi::LineRequest& line, sim::TimePs) const {
  if (!cfg_.enabled) {
    return true;
  }
  const Bucket& b = buckets_[bucket_of(line.addr)];
  return !b.limited || b.credit.can_spend();
}

void Regulator::on_grant(const axi::LineRequest& line, sim::TimePs now) {
  if (!cfg_.enabled) {
    return;
  }
  const std::uint32_t key = bucket_of(line.addr);
  Bucket& b = buckets_[key];
  if (!b.limited) {
    return;
  }
  b.stats.regulated_bytes += line.bytes;
  b.window_bytes += line.bytes;
  if (cfg_.observation_latency_ps == 0) {
    b.credit.spend(line.bytes);
    debit_landed(b, now);
    return;
  }
  // Loosely coupled: the gate learns of this grant only after the lag and
  // keeps admitting on stale credit meanwhile.
  const std::uint64_t bytes = line.bytes;
  const std::uint64_t window = window_;
  sim_.schedule_at(
      now + cfg_.observation_latency_ps,
      [this, key, bytes, window]() {
        if (window == window_) {
          Bucket& late = buckets_[key];
          const bool was_exhausted = late.exhausted;
          late.credit.debit_late(bytes);
          debit_landed(late, sim_.now());
          if (late.exhausted && !was_exhausted) {
            closed();  // shut outside on_grant()
          }
        }
      },
      prof_tag_);
}

void Regulator::debit_landed(Bucket& b, sim::TimePs now) {
  // A late debit may land after the gate was disabled or the bank
  // deregulated; the gate is open then and no throttle interval starts.
  if (cfg_.enabled && b.limited && !b.exhausted && !b.credit.can_spend()) {
    // Credit gone: the gate is now shut until the next replenish.
    // Record the exhaustion edge (same cycle as the debit).
    b.exhausted = true;
    b.exhausted_since = now;
    ++b.stats.exhausted_windows;
    b.stats.last_exhausted_at = now;
    if (trace_ != nullptr) {
      trace_->counter(track_, "tokens", now,
                      static_cast<double>(b.credit.tokens()));
    }
  }
}

}  // namespace fgqos::qos

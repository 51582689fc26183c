#include "qos/soft_memguard.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "qos/window.hpp"
#include "telemetry/journal.hpp"
#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::qos {

namespace {

std::string master_detail(axi::MasterId m, std::uint32_t attempt) {
  return "master=" + std::to_string(m) +
         " attempt=" + std::to_string(attempt);
}

}  // namespace

SoftMemguard::SoftMemguard(sim::Simulator& sim, SoftMemguardConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  config_check(cfg_.period_ps > 0, "SoftMemguard: period must be > 0");
  config_check(cfg_.isr_latency_ps < cfg_.period_ps,
               "SoftMemguard: ISR latency must be below the period");
  prof_tag_ = sim_.profile_tag("qos.memguard");
  period_event_ = sim_.make_recurring_event(
      [this](std::uint64_t) { on_period_tick(); }, prof_tag_);
  sim_.schedule_recurring(period_event_, sim_.now() + cfg_.period_ps);
}

void SoftMemguard::ensure(axi::MasterId master) {
  if (master >= masters_.size()) {
    masters_.resize(master + 1);
  }
}

void SoftMemguard::set_budget(axi::MasterId master, std::uint64_t budget_bytes) {
  ensure(master);
  MasterState& st = masters_[master];
  st.budget = budget_bytes;
  // Mid-period reprogramming must re-evaluate the throttle state against
  // the new budget. Leaving stalled/overflow_pending untouched either keeps
  // a master parked under a budget it no longer exceeds, or lets a
  // previously-scheduled deliver_stall land on a master whose overflow was
  // cancelled by the reconfiguration.
  const sim::TimePs now = sim_.now();
  if (budget_bytes == 0 || st.bytes <= st.budget) {
    st.overflow_pending = false;  // in-flight ISRs see this and back off
    if (st.stalled) {
      st.stats.throttled_ps += now - st.stalled_since;
      trace_stall_end(master, st, now);
      st.stalled = false;
    }
  } else if (!st.stalled && !st.overflow_pending) {
    // Budget lowered below the bytes already granted this period: raise
    // the overflow interrupt now. The overage itself was granted
    // legitimately under the old budget, so it is not a violation;
    // violation accounting starts with grants made while the IRQ is in
    // flight (handled in on_grant).
    st.overflow_pending = true;
    const std::uint64_t period = period_index_;
    sim_.schedule_at(
        now + cfg_.isr_latency_ps,
        [this, master, period]() { deliver_stall(master, period, 0, true); },
        prof_tag_);
  }
  reopened();
}

void SoftMemguard::set_rate(axi::MasterId master, double bytes_per_second) {
  set_budget(master, budget_for_rate(bytes_per_second, cfg_.period_ps));
}

const SoftMemguardMasterStats& SoftMemguard::master_stats(
    axi::MasterId master) const {
  static const SoftMemguardMasterStats kEmpty{};
  if (master >= masters_.size()) {
    return kEmpty;
  }
  return masters_[master].stats;
}

std::uint64_t SoftMemguard::period_bytes(axi::MasterId master) const {
  return master < masters_.size() ? masters_[master].bytes : 0;
}

bool SoftMemguard::stalled(axi::MasterId master) const {
  return master < masters_.size() && masters_[master].stalled;
}

void SoftMemguard::set_trace(telemetry::TraceWriter* writer) {
  trace_ = writer;
  track_ = telemetry::TrackId{};
  if (trace_ != nullptr) {
    track_ = trace_->track(telemetry::Cat::kQos, cfg_.name);
    if (!track_.valid()) {
      trace_ = nullptr;  // qos category filtered out
    }
  }
}

void SoftMemguard::trace_stall_end(axi::MasterId master,
                                   const MasterState& st, sim::TimePs now) {
  if (trace_ != nullptr) {
    char name[32];
    std::snprintf(name, sizeof(name), "stall m%u",
                  static_cast<unsigned>(master));
    trace_->complete(track_, name, st.stalled_since, now - st.stalled_since);
  }
}

void SoftMemguard::flush_trace(sim::TimePs now) {
  for (axi::MasterId m = 0; m < masters_.size(); ++m) {
    if (masters_[m].stalled) {
      trace_stall_end(m, masters_[m], now);
    }
  }
}

bool SoftMemguard::allow(const axi::LineRequest& line, sim::TimePs) const {
  const axi::MasterId m = line.txn->master;
  if (m >= masters_.size()) {
    return true;
  }
  return !masters_[m].stalled;
}

void SoftMemguard::on_grant(const axi::LineRequest& line, sim::TimePs now) {
  const axi::MasterId m = line.txn->master;
  if (m >= masters_.size()) {
    return;
  }
  MasterState& st = masters_[m];
  st.bytes += line.bytes;
  if (st.budget == 0) {
    return;
  }
  if (st.bytes > st.budget) {
    if (st.overflow_pending || st.stalled) {
      // Interrupt already in flight: everything granted from the overflow
      // until the stall lands is a guarantee violation.
      if (!st.stalled) {
        st.stats.violation_bytes += line.bytes;
      }
      return;
    }
    st.overflow_pending = true;
    st.stats.violation_bytes += st.bytes - st.budget;
    const std::uint64_t period = period_index_;
    sim_.schedule_at(
        now + cfg_.isr_latency_ps,
        [this, m, period]() { deliver_stall(m, period, 0, true); },
        prof_tag_);
  }
}

void SoftMemguard::deliver_stall(axi::MasterId m, std::uint64_t period,
                                 std::uint32_t attempt, bool faultable) {
  MasterState& st = masters_[m];
  if (period != period_index_) {
    return;  // the period ended before the ISR landed; budget was reset
  }
  if (!st.overflow_pending) {
    return;  // overflow cancelled by a set_budget() while the ISR was in
             // flight
  }
  if (faultable && irq_fault_) {
    const sim::TimePs verdict = irq_fault_(sim_.now());
    if (verdict == sim::kTimeNever) {
      ++irq_stats_.irqs_dropped;
      if (cfg_.irq_retry && attempt < cfg_.irq_max_retries) {
        // IRQ-loss hardening: the software watchdog notices the missing
        // acknowledgement and re-sends with exponential backoff.
        ++irq_stats_.irqs_retried;
        const std::uint32_t shift = std::min<std::uint32_t>(attempt + 1, 6);
        const sim::TimePs backoff = cfg_.isr_latency_ps << shift;
        const std::uint64_t p = period;
        const std::uint32_t next = attempt + 1;
        if (journal_ != nullptr) {
          journal_->record(sim_.now(), cfg_.name, "irq_retry",
                           static_cast<double>(attempt),
                           static_cast<double>(next), "irq_fault",
                           master_detail(m, attempt) +
                               " backoff_ps=" + std::to_string(backoff));
        }
        sim_.schedule_after(
            backoff,
            [this, m, p, next]() { deliver_stall(m, p, next, true); },
            prof_tag_);
      } else {
        ++irq_stats_.irqs_lost;
        if (journal_ != nullptr) {
          journal_->record(sim_.now(), cfg_.name, "irq_lost", 0.0, 0.0,
                           "irq_fault", master_detail(m, attempt));
        }
      }
      return;
    }
    if (verdict > 0) {
      // Late delivery: the stall lands after the extra delay; the fault
      // is not re-consulted (the IRQ already left the faulty path).
      ++irq_stats_.irqs_delayed;
      const std::uint64_t p = period;
      const std::uint32_t a = attempt;
      if (journal_ != nullptr) {
        journal_->record(sim_.now(), cfg_.name, "irq_delay", 0.0,
                         static_cast<double>(verdict), "irq_fault",
                         master_detail(m, attempt));
      }
      sim_.schedule_after(
          verdict, [this, m, p, a]() { deliver_stall(m, p, a, false); },
          prof_tag_);
      return;
    }
  }
  st.overflow_pending = false;
  st.stalled = true;
  st.stalled_since = sim_.now();
  if (journal_ != nullptr) {
    journal_->record(sim_.now(), cfg_.name, "stall", 0.0, 1.0,
                     "overflow_irq",
                     master_detail(m, attempt) +
                         " period_bytes=" + std::to_string(st.bytes) +
                         " quota=" + std::to_string(st.budget));
  }
  if (trace_ != nullptr) {
    char name[32];
    std::snprintf(name, sizeof(name), "overflow_irq m%u",
                  static_cast<unsigned>(m));
    trace_->instant(track_, name, sim_.now());
  }
  if (st.period_of_last_stall != period_index_) {
    st.period_of_last_stall = period_index_;
    ++st.stats.periods_throttled;
  }
  closed();
}

void SoftMemguard::on_period_tick() {
  const sim::TimePs now = sim_.now();
  for (axi::MasterId m = 0; m < masters_.size(); ++m) {
    MasterState& st = masters_[m];
    if (st.stalled) {
      st.stats.throttled_ps += now - st.stalled_since;
      trace_stall_end(m, st, now);
      st.stalled = false;
      if (journal_ != nullptr) {
        journal_->record(now, cfg_.name, "release", 1.0, 0.0, "period_tick",
                         "master=" + std::to_string(m) + " stalled_ps=" +
                             std::to_string(now - st.stalled_since));
      }
    }
    st.overflow_pending = false;
    st.bytes = 0;
  }
  ++period_index_;
  sim_.schedule_recurring(period_event_, now + cfg_.period_ps);
  reopened();
}

}  // namespace fgqos::qos

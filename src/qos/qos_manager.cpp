#include "qos/qos_manager.hpp"

#include <algorithm>
#include <sstream>

#include "qos/envelope.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "util/config_error.hpp"

namespace fgqos::qos {

QosManager::QosManager(sim::Simulator& sim, QosManagerConfig cfg)
    : sim_(sim), cfg_(cfg) {
  config_check(cfg_.capacity_bps > 0, "QosManager: capacity must be > 0");
  config_check(cfg_.max_reservable_frac > 0 && cfg_.max_reservable_frac <= 1,
               "QosManager: max_reservable_frac must be in (0,1]");
  config_check(cfg_.idle_threshold >= 0 && cfg_.idle_threshold <= 1,
               "QosManager: idle_threshold must be in [0,1]");
}

void QosManager::add_port(std::string name, axi::MasterId master,
                          QosRegFile& regfile) {
  config_check(find(master) == nullptr,
               "QosManager: master already registered");
  config_check(regfile.regulator() != nullptr,
               "QosManager: port '" + name + "' has no regulator");
  ManagedPort p;
  p.name = std::move(name);
  p.master = master;
  p.regfile = &regfile;
  ports_.push_back(p);
  // Best-effort default: floor rate so an unmanaged port cannot flood.
  program_rate(ports_.back(), cfg_.best_effort_floor_bps);
}

ManagedPort* QosManager::find(axi::MasterId master) {
  for (auto& p : ports_) {
    if (p.master == master) {
      return &p;
    }
  }
  return nullptr;
}

void QosManager::program_rate(ManagedPort& port, double bps) {
  QosRegFile& rf = *port.regfile;
  const auto window_ns = rf.read(Reg::kWindowNs);
  const sim::TimePs window_ps =
      static_cast<sim::TimePs>(window_ns) * sim::kPsPerNs;
  const std::uint64_t budget = budget_for_rate(bps, window_ps);
  if (budget == rf.read(Reg::kBudget) && rf.read(Reg::kCtrl) == 1u) {
    return;  // already programmed: don't kick a fresh window for nothing
  }
  rf.write(Reg::kBudget, static_cast<std::uint32_t>(budget));
  // Enable + window-restart command: the new budget takes effect as a
  // fresh full window right now rather than at the next boundary, exactly
  // like a direct set_rate() on an untouched regulator. This is what makes
  // an all-accepted admission run byte-identical to unmanaged programming.
  rf.write(Reg::kCtrl, 1u | 2u);
}

void QosManager::journal_record(const std::string& action, double old_value,
                                double new_value, const std::string& cause,
                                const std::string& detail) {
  if (journal_ != nullptr) {
    journal_->record(sim_.now(), "qos.manager", action, old_value, new_value,
                     cause, detail);
  }
}

void QosManager::set_metrics(telemetry::MetricsRegistry* metrics) {
  metrics_ = metrics;
  update_reserved_gauge();
}

void QosManager::update_reserved_gauge() {
  if (metrics_ != nullptr) {
    metrics_->gauge("qos.admission.reserved_bps").set(reserved_total_bps());
  }
}

void QosManager::set_envelope(const CertifiedEnvelope* envelope) {
  envelope_ = envelope;
}

bool QosManager::reserve(axi::MasterId master, double bytes_per_second) {
  ManagedPort* p = find(master);
  config_check(p != nullptr, "QosManager: unknown master");
  config_check(bytes_per_second > 0, "QosManager: rate must be > 0");
  const double already = p->best_effort ? 0.0 : p->reserved_bps;
  const double total = reserved_total_bps() - already + bytes_per_second;

  auto reject = [&](const std::string& cause, double bound) {
    std::ostringstream detail;
    detail << "master=" << p->name
           << " rate_bps=" << static_cast<std::uint64_t>(bytes_per_second)
           << " total_bps=" << static_cast<std::uint64_t>(total);
    journal_record("reserve_reject", already, bytes_per_second, cause,
                   detail.str() + " bound_bps=" +
                       std::to_string(static_cast<std::uint64_t>(bound)));
    if (metrics_ != nullptr) {
      metrics_->counter("qos.admission.rejected").add();
    }
    return false;
  };

  if (envelope_fallback_) {
    return reject("envelope_fallback", 0.0);
  }
  if (envelope_ != nullptr) {
    // Same strict-inequality boundary convention as the capacity check:
    // a request landing exactly on a certified cap is admitted.
    if (const MasterBound* b = envelope_->bound_for(p->name);
        b != nullptr && b->max_reserved_bps > 0 &&
        bytes_per_second > b->max_reserved_bps) {
      return reject("envelope_master_bound", b->max_reserved_bps);
    }
    if (envelope_->certified_total_bps > 0 &&
        total > envelope_->certified_total_bps) {
      return reject("envelope_total_bound", envelope_->certified_total_bps);
    }
  }
  if (total > cfg_.capacity_bps * cfg_.max_reservable_frac) {
    return reject("capacity_frac",
                  cfg_.capacity_bps * cfg_.max_reservable_frac);
  }
  p->best_effort = false;
  p->reserved_bps = bytes_per_second;
  program_rate(*p, bytes_per_second);
  journal_record("reserve_accept", already, bytes_per_second, "admission",
                 "master=" + p->name + " total_bps=" +
                     std::to_string(static_cast<std::uint64_t>(total)));
  if (metrics_ != nullptr) {
    metrics_->counter("qos.admission.accepted").add();
  }
  update_reserved_gauge();
  return true;
}

void QosManager::release(axi::MasterId master) {
  ManagedPort* p = find(master);
  config_check(p != nullptr, "QosManager: unknown master");
  const double old_bps = p->best_effort ? 0.0 : p->reserved_bps;
  p->best_effort = true;
  p->reserved_bps = 0.0;
  program_rate(*p, cfg_.best_effort_floor_bps);
  journal_record("release", old_bps, 0.0, "host_release",
                 "master=" + p->name);
  if (metrics_ != nullptr) {
    metrics_->counter("qos.admission.released").add();
  }
  update_reserved_gauge();
}

void QosManager::on_envelope_violated(const std::string& source,
                                      const std::string& quantity,
                                      double bound, double measured) {
  if (metrics_ != nullptr) {
    metrics_->counter("qos.admission.envelope_violated").add();
  }
  if (envelope_fallback_) {
    return;  // already degraded; only count the further excursion
  }
  envelope_fallback_ = true;
  journal_record("envelope_violated", bound, measured, quantity,
                 "source=" + source);
  if (reclaiming_) {
    stop_reclamation();
  }
  // Conservative fallback budgets: best-effort ports drop to the floor,
  // reserved ports are clamped to their certified caps.
  for (auto& p : ports_) {
    if (p.best_effort) {
      program_rate(p, cfg_.best_effort_floor_bps);
      continue;
    }
    double capped = p.reserved_bps;
    if (envelope_ != nullptr) {
      if (const MasterBound* b = envelope_->bound_for(p.name);
          b != nullptr && b->max_reserved_bps > 0) {
        capped = std::min(capped, b->max_reserved_bps);
      }
    }
    if (capped != p.reserved_bps) {
      journal_record("fallback_clamp", p.reserved_bps, capped,
                     "envelope_fallback", "master=" + p.name);
      p.reserved_bps = capped;
    }
    program_rate(p, capped);
  }
  update_reserved_gauge();
}

double QosManager::reserved_total_bps() const {
  double total = 0.0;
  for (const auto& p : ports_) {
    if (!p.best_effort) {
      total += p.reserved_bps;
    }
  }
  return total;
}

double QosManager::available_bps() const {
  return cfg_.capacity_bps * cfg_.max_reservable_frac - reserved_total_bps();
}

void QosManager::start_reclamation() {
  config_check(cfg_.reclaim_period_ps > 0,
               "QosManager: reclamation disabled by configuration");
  if (reclaiming_) {
    return;
  }
  reclaiming_ = true;
  if (!reclaim_event_made_) {
    reclaim_event_made_ = true;
    reclaim_event_ = sim_.make_recurring_event(
        [this](std::uint64_t epoch) { reclaim_tick(epoch); },
        sim_.profile_tag("qos.manager"));
  }
  sim_.schedule_recurring(reclaim_event_, sim_.now() + cfg_.reclaim_period_ps,
                          ++reclaim_epoch_);
}

void QosManager::stop_reclamation() {
  reclaiming_ = false;
  ++reclaim_epoch_;
  // Restore static programming.
  for (auto& p : ports_) {
    program_rate(p, p.best_effort ? cfg_.best_effort_floor_bps
                                  : p.reserved_bps);
  }
}

void QosManager::reclaim_tick(std::uint64_t epoch) {
  if (!reclaiming_ || epoch != reclaim_epoch_) {
    return;
  }
  ++reclaim_iterations_;
  // 1. Measure each port's consumption over the last period from its
  //    monitor registers (as the real driver does).
  double slack_bps = std::max(0.0, cfg_.capacity_bps - reserved_total_bps());
  std::vector<ManagedPort*> best_effort;
  for (auto& p : ports_) {
    const std::uint64_t total = p.regfile->monitor_total_bytes();
    const std::uint64_t last = last_total_bytes_.count(p.master)
                                   ? last_total_bytes_[p.master]
                                   : 0;
    last_total_bytes_[p.master] = total;
    const double used_bps =
        sim::bytes_per_second(total - last, cfg_.reclaim_period_ps);
    if (p.best_effort) {
      best_effort.push_back(&p);
      continue;
    }
    if (used_bps < p.reserved_bps * cfg_.idle_threshold) {
      // Idle guarantee: its unused share becomes reclaimable. Keep the
      // measured usage plus headroom so a waking master ramps gracefully
      // until the next period restores its full guarantee.
      slack_bps += p.reserved_bps - used_bps;
    }
  }
  // 2. Split the slack evenly across the best-effort ports.
  if (!best_effort.empty()) {
    const double share = std::max(
        cfg_.best_effort_floor_bps,
        slack_bps / static_cast<double>(best_effort.size()));
    for (ManagedPort* p : best_effort) {
      program_rate(*p, share);
    }
  }
  // 3. Reserved ports always keep their full guarantee programmed.
  for (auto& p : ports_) {
    if (!p.best_effort) {
      program_rate(p, p.reserved_bps);
    }
  }
  sim_.schedule_recurring(reclaim_event_, sim_.now() + cfg_.reclaim_period_ps,
                          epoch);
}

}  // namespace fgqos::qos

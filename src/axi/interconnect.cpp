#include "axi/interconnect.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::axi {

Interconnect::Interconnect(sim::Simulator& sim, const sim::ClockDomain& clk,
                           InterconnectConfig cfg)
    : sim::Clocked(sim, clk, cfg.name),
      cfg_(std::move(cfg)),
      arbiter_(std::make_unique<RoundRobinArbiter>()) {
  config_check(cfg_.issue_width > 0, "Interconnect: issue_width must be > 0");
  prof_tag_deliver_ = sim.profile_tag("axi.deliver");
}

MasterPort& Interconnect::add_master(MasterPortConfig cfg) {
  const auto id = static_cast<MasterId>(ports_.size());
  ports_.push_back(std::make_unique<MasterPort>(*this, id, std::move(cfg)));
  eligible_.resize(ports_.size());
  return *ports_.back();
}

void Interconnect::set_arbiter(std::unique_ptr<Arbiter> arb) {
  FGQOS_ASSERT(arb != nullptr, "Interconnect: null arbiter");
  arbiter_ = std::move(arb);
}

std::uint64_t Interconnect::total_bytes_granted() const {
  std::uint64_t total = 0;
  for (const auto& p : ports_) {
    total += p->stats().bytes_granted.value();
  }
  return total;
}

void Interconnect::set_attribution(telemetry::AttributionEngine* engine) {
  if (attr_ != nullptr) {
    attr_->remove_settler(this);
  }
  attr_ = engine;
  last_accepted_master_ = telemetry::kNoOwner;
  edge_cache_ = {};
  for (const auto& p : ports_) {
    p->set_attribution(engine);
  }
  if (attr_ != nullptr) {
    attr_->add_settler(this, [this] { settle_attribution(); });
  }
}

void Interconnect::settle_attribution() {
  const sim::Cycles next = next_polled_edge();
  if (next == 0) {
    return;
  }
  const sim::TimePs last = clock().edge_time(next - 1);
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    MasterPort& p = *ports_[i];
    telemetry::WaitState& w = p.attr_wait();
    if (w.open && w.last < last) {
      attr_->carry(w, static_cast<MasterId>(i), last, p.attr_head(last));
    }
  }
}

void Interconnect::notify_work(sim::TimePs ready_at) { wake_at(ready_at); }

bool Interconnect::refused_after_gap(const MasterPort& p, sim::TimePs now,
                                     sim::TimePs gap_end,
                                     sim::TimePs retry) const {
  // When the pace gap ends the slave still refuses this line: only a freed
  // slot can change that, and space_freed() wakes the crossbar. With
  // attribution on, the gap's end moves the port's blame cell, so the
  // timer stays. A gap ending no earlier than \p retry needs no check: the
  // crossbar wakes by then anyway.
  return gap_end < retry && attr_ == nullptr &&
         !slave_->can_accept(p.peek_line(now), now);
}

bool Interconnect::tick(sim::Cycles cycle) {
  FGQOS_ASSERT(slave_ != nullptr, "Interconnect: slave not wired");
  const sim::TimePs now = simulator().now();
  awaiting_space_ = false;
  // Single exit: the grant loop only ever breaks (never returns) so the
  // end-of-tick attribution pass runs on every tick, including the
  // locked-burst stall paths.
  int first_granted = -1;
  bool granted = false;
  bool hold = false;
  // Sleep bookkeeping, valid when `settled`: the last port scan plus the
  // grant that followed it cover every port. `retry` is the earliest time
  // a port can turn grantable without notifying (see grant_block_reason).
  bool settled = false;
  sim::TimePs retry = sim::kTimeNever;
  bool refused = false;  // a grantable line the slave refused
  for (std::size_t grant = 0; grant < cfg_.issue_width && !hold; ++grant) {
    int pick = -1;
    if (locked_master_ >= 0) {
      // kTransaction: the burst in progress keeps the crossbar.
      MasterPort& p = *ports_[static_cast<std::size_t>(locked_master_)];
      switch (p.grant_block_reason(now)) {
        case MasterPort::BlockReason::kNone:
          if (!slave_->can_accept(p.peek_line(now), now)) {
            // Head-of-line blocked at the slave: hold everyone.
            hold = true;
          } else {
            pick = locked_master_;
            settled = false;
          }
          break;
        case MasterPort::BlockReason::kRateLimit:
          // Transient pace gap within the burst: keep the lock, stall.
          hold = true;
          break;
        case MasterPort::BlockReason::kGate:
        case MasterPort::BlockReason::kEmpty:
          // The port withdrew (QoS gate shut the handshake): release so
          // a throttled burst cannot stall unrelated masters.
          locked_master_ = -1;
          break;
      }
      if (hold) {
        break;
      }
    }
    if (pick < 0) {
      retry = sim::kTimeNever;
      refused = false;
      std::size_t eligible = 0;
      for (std::size_t i = 0; i < ports_.size(); ++i) {
        const MasterPort& p = *ports_[i];
        bool ok = false;
        sim::TimePs port_retry = sim::kTimeNever;
        const MasterPort::BlockReason why =
            p.grant_block_reason(now, port_retry);
        if (why == MasterPort::BlockReason::kRateLimit &&
            refused_after_gap(p, now, port_retry, retry)) {
          refused = true;
        } else {
          retry = std::min(retry, port_retry);
        }
        if (why == MasterPort::BlockReason::kNone) {
          // The slave must also have room for this specific line.
          ok = slave_->can_accept(p.peek_line(now), now);
          if (ok) {
            ++eligible;
          } else {
            refused = true;
          }
        }
        eligible_[i] = ok;
      }
      if (eligible == 0) {
        settled = true;
        break;
      }
      pick = arbiter_->pick(eligible_, now);
      if (pick < 0) {
        break;
      }
      // Another eligible port may be granted next cycle.
      settled = eligible == 1;
    }
    MasterPort& winner = *ports_[static_cast<std::size_t>(pick)];
    LineRequest line = winner.commit_grant(now);
    slave_->accept(line, now);
    granted = true;
    if (settled) {
      sim::TimePs port_retry = sim::kTimeNever;
      const MasterPort::BlockReason why =
          winner.grant_block_reason(now, port_retry);
      if (why == MasterPort::BlockReason::kNone) {
        retry = now;
      } else if (why == MasterPort::BlockReason::kRateLimit &&
                 refused_after_gap(winner, now, port_retry, retry)) {
        refused = true;
      } else {
        retry = std::min(retry, port_retry);
      }
    }
    if (attr_ != nullptr) {
      if (first_granted < 0) {
        first_granted = pick;
      }
      last_accepted_master_ = line.txn->master;
    }
    if (cfg_.granularity == ArbGranularity::kTransaction) {
      locked_master_ = line.last_of_txn ? -1 : pick;
    }
  }
  if (granted) {
    note_busy_tick();
  }
  const sim::TimePs cell_change =
      attr_ != nullptr ? attribution_pass(cycle, now, first_granted)
                       : sim::kTimeNever;
  if (hold || locked_master_ >= 0 || !settled) {
    return true;
  }
  // No port can be granted before `retry`; everything else that could
  // change that notifies (issue(), gate reopen, space_freed()). With
  // attribution on, sleep no further than the next cell change.
  retry = std::min(retry, cell_change);
  if (retry <= now + clock().period_ps()) {
    return true;
  }
  awaiting_space_ = refused;
  if (retry != sim::kTimeNever) {
    wake_at(retry);
  }
  return false;
}

void Interconnect::space_freed() {
  if (awaiting_space_) {
    wake_as_polled();
  }
}

sim::TimePs Interconnect::attribution_pass(sim::Cycles cycle, sim::TimePs now,
                                          int first_granted) {
  const sim::TimePs prev = cycle > 0 ? clock().edge_time(cycle - 1) : 0;
  const bool window_edge =
      cycle == 0 ||
      attr_->window_edge(clock(), cycle - 1, edge_cache_) == cycle;
  sim::TimePs change = sim::kTimeNever;
  bool waiting = false;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    MasterPort& p = *ports_[i];
    telemetry::WaitState& w = p.attr_wait();
    if (!w.open || w.last > now) {
      continue;  // no head, or the head is not visible yet
    }
    waiting = true;
    const auto victim = static_cast<MasterId>(i);
    switch (p.grant_block_reason(now)) {
      case MasterPort::BlockReason::kEmpty:
        break;  // unreachable while the wait is open and started
      case MasterPort::BlockReason::kRateLimit:
      case MasterPort::BlockReason::kGate:
        // The port's own data-path pacing or its own QoS gate: self. Both
        // lift only at `retry` or with a gate's reopen signal.
        attr_->charge_since(w, victim, victim, telemetry::Cause::kSelf, prev,
                            now, window_edge, p.attr_head(now));
        break;
      case MasterPort::BlockReason::kNone: {
        // Grantable but not granted: lost arbitration / issue width /
        // downstream backpressure. Blame whoever got the fabric instead.
        const MasterId aggressor =
            first_granted >= 0 ? static_cast<MasterId>(first_granted)
                               : last_accepted_master_;
        attr_->charge_since(w, victim, aggressor,
                            telemetry::Cause::kFabricArb, prev, now,
                            window_edge, p.attr_head(now));
        // Next cycle the blame moves to the last line accepted.
        if (aggressor != last_accepted_master_) {
          change = now;
        }
        break;
      }
    }
  }
  if (waiting) {
    change = std::min(
        change,
        clock().edge_time(attr_->window_edge(clock(), cycle, edge_cache_)));
  }
  return change;
}

void Interconnect::line_done(const LineRequest& line, sim::TimePs now) {
  Transaction* txn = line.txn;
  FGQOS_ASSERT(txn != nullptr && txn->lines_left > 0,
               "line_done: bad transaction state");
  if (response_fault_) {
    const Resp r = response_fault_(line, now);
    if (r > txn->resp) {
      txn->resp = r;
    }
  }
  --txn->lines_left;
  if (txn->lines_left > 0) {
    return;
  }
  MasterPort& port = *ports_.at(txn->master);
  const sim::TimePs deliver = now + port.config().response_latency_ps;
  simulator().schedule_at(
      deliver, [&port, txn, deliver]() { port.complete_txn(*txn, deliver); },
      prof_tag_deliver_);
}

}  // namespace fgqos::axi

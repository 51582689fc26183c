/// \file regulator.hpp
/// \brief Tightly-coupled hardware bandwidth regulator.
///
/// The regulator is a byte-token bucket gating the AXI AR/AW handshake of
/// one master port: a line is granted only when enough tokens remain, and
/// tokens are debited in the same cycle the grant occurs. Because the gate
/// is combinational (TxnGate::allow is evaluated at arbitration time), an
/// over-budget master is stalled with zero reaction latency — the defining
/// property of the paper's hardware QoS block, in contrast to the
/// interrupt-driven software baseline (SoftMemguard).
///
/// Two parameters turn the same gate into the repo's regulation variants:
///  * the bucket key: one aggregate bucket per port, or one bucket per
///    DRAM bank when RegulatorConfig::bank_budget_bytes is set — a master
///    can then be clamped hard on a victim's bank while running
///    unthrottled everywhere else (per-bank regulation, arXiv 2603.26054);
///  * the reaction lag: RegulatorConfig::observation_latency_ps defers each
///    grant's debit, modelling a monitor that sits across the fabric
///    instead of on the port (the coupling ablation, EXP8).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "axi/port.hpp"
#include "dram/address_mapper.hpp"
#include "qos/window.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/trace.hpp"

namespace fgqos::telemetry {
class DecisionJournal;
}

namespace fgqos::qos {

/// Regulator configuration.
struct RegulatorConfig {
  std::string name = "regulator";
  /// Bytes that may be granted per window (aggregate key; 0 shuts the
  /// gate). Unused when bank_budget_bytes is set.
  std::uint64_t budget_bytes = 4096;
  /// Replenishment window (the regulation granularity), shared by every
  /// bucket.
  sim::TimePs window_ps = sim::kPsPerUs;
  /// Replenish semantics (reset vs. accumulate).
  ReplenishKind kind = ReplenishKind::kFixedWindow;
  /// Burst cap for kTokenBucket, in multiples of the budget.
  std::uint64_t max_accumulation_windows = 1;
  /// Start enabled?
  bool enabled = true;
  /// Non-empty: one bucket per DRAM bank with these per-window budgets,
  /// indexed by bank; 0 (or an index beyond the vector) leaves the bank
  /// unregulated. Sized up to the DRAM bank count at construction.
  std::vector<std::uint64_t> bank_budget_bytes;
  /// Delay between a grant and its debit (0 = same cycle, tightly
  /// coupled). A lagged gate models a polled per-window byte counter:
  /// debits still in flight when a window boundary passes are dropped,
  /// and debt learnt late is cleared at the boundary instead of carried.
  sim::TimePs observation_latency_ps = 0;
};

/// Regulator statistics (per bucket; Regulator::stats() sums them).
struct RegulatorStats {
  /// Number of windows in which the budget was fully exhausted.
  std::uint64_t exhausted_windows = 0;
  /// Accumulated time the gate was shut (from exhaustion to replenish).
  sim::TimePs throttled_ps = 0;
  /// Bytes granted while enabled.
  std::uint64_t regulated_bytes = 0;
  /// Time of the most recent exhaustion event (kTimeNever if none).
  sim::TimePs last_exhausted_at = sim::kTimeNever;
  /// Replenish IRQs lost to an injected fault (window passed unreplenished).
  std::uint64_t replenish_irqs_dropped = 0;
  /// Replenish IRQs that landed late due to an injected fault.
  std::uint64_t replenish_irqs_delayed = 0;
  /// Largest closed-window overshoot: bytes granted in one window minus
  /// the budget (running max, 0 if never over).
  std::uint64_t max_overshoot_bytes = 0;
};

/// The regulator. Attach with `port.add_gate(reg)`; on_grant of the gate
/// interface is called on every grant, so no observer is needed. Several
/// regulators may gate one port (AND semantics).
class Regulator final : public axi::TxnGate {
 public:
  /// \param bank_map decodes a line to its DRAM bank; required exactly
  ///                 when cfg.bank_budget_bytes is non-empty, and must
  ///                 match the controller's geometry and mapping policy or
  ///                 the charged bank diverges from the serviced bank.
  Regulator(sim::Simulator& sim, RegulatorConfig cfg,
            std::optional<dram::AddressMapper> bank_map = std::nullopt);

  [[nodiscard]] const RegulatorConfig& config() const { return cfg_; }
  /// Statistics summed over every bucket.
  [[nodiscard]] RegulatorStats stats() const;
  /// Current byte credit of \p bank's bucket (negative while in
  /// overdraft; the aggregate gate has only bucket 0).
  [[nodiscard]] std::int64_t tokens(std::uint32_t bank = 0) const {
    return buckets_[bank].credit.tokens();
  }
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  /// True when some bucket's budget is currently exhausted (gate shut).
  [[nodiscard]] bool exhausted() const;
  [[nodiscard]] bool exhausted(std::uint32_t bank) const {
    return buckets_[bank].exhausted;
  }

  /// Bank-keyed gate: number of DRAM banks (0 for the aggregate gate).
  [[nodiscard]] std::uint32_t banks() const {
    return bank_map_ ? static_cast<std::uint32_t>(buckets_.size()) : 0;
  }
  /// True when \p bank carries a nonzero budget (is being regulated).
  [[nodiscard]] bool bank_limited(std::uint32_t bank) const {
    return bank < banks() && buckets_[bank].limited;
  }
  [[nodiscard]] const RegulatorStats& bank_stats(std::uint32_t bank) const {
    return buckets_[bank].stats;
  }
  /// Bank a line request would be charged to (exposed for tests).
  [[nodiscard]] std::uint32_t decode_bank(axi::Addr addr) const {
    return bank_map_->decode(addr).bank;
  }

  /// Enables/disables regulation at runtime (host CTRL register).
  void set_enabled(bool enabled);

  /// Reprograms the per-window budget (host BUDGET register; aggregate
  /// gate only).
  void set_budget(std::uint64_t budget_bytes);

  /// Reprograms one bank's per-window budget (host BUDGET[bank] register;
  /// bank-keyed gate only); 0 lifts regulation from the bank.
  void set_bank_budget(std::uint32_t bank, std::uint64_t budget_bytes);

  /// Reprograms the window length; restarts the replenish schedule.
  void set_window(sim::TimePs window_ps);

  /// Host CTRL restart command (self-clearing bit 1): reloads the credit
  /// counter to one full BUDGET and restarts the replenish window at the
  /// current time. This is the explicit handshake drivers use to make a
  /// freshly programmed budget take effect immediately instead of at the
  /// next window boundary — set_budget()/set_window() on their own never
  /// refill credit (pinned regulator semantics).
  void restart_window();

  /// Convenience: budget from a target rate for the current window.
  void set_rate(double bytes_per_second);

  /// Effective programmed rate in bytes/second.
  [[nodiscard]] double programmed_rate_bps() const;

  /// Attaches the decision journal (nullptr detaches): register writes
  /// (set_enabled/set_budget/set_bank_budget/set_window) that change the
  /// programmed value are recorded with cause "host_write", and replenish
  /// IRQs lost or delayed by an injected fault with cause "irq_fault".
  void set_journal(telemetry::DecisionJournal* journal) { journal_ = journal; }

  /// Attaches the Chrome-trace sink (nullptr detaches): throttle
  /// intervals become duration events and the token credit a counter
  /// track, both on a track named after this regulator.
  void set_trace(telemetry::TraceWriter* writer);

  /// Emits the trailing throttle span when the gate is still shut at the
  /// end of a run (call before TraceWriter::finish()).
  void flush_trace(sim::TimePs now);

  /// Fault seam on replenish-IRQ delivery, consulted at each window
  /// boundary. Return 0 to deliver normally, a positive delay (ps) to
  /// land the replenish late, or sim::kTimeNever to drop it entirely (the
  /// window passes unreplenished; an exhausted gate stays shut until the
  /// next surviving replenish). Empty function = perfect delivery.
  using IrqFaultFn = std::function<sim::TimePs(sim::TimePs)>;
  void set_irq_fault(IrqFaultFn fn) { irq_fault_ = std::move(fn); }

  // TxnGate: allow() reads only enabled, limited and can_spend(); they can
  // turn it true only in an enabled gate's replenish, set_enabled(),
  // set_budget(), set_bank_budget() or a schedule restart, and each of
  // those signals.
  [[nodiscard]] bool allow(const axi::LineRequest& line,
                           sim::TimePs now) const override;
  void on_grant(const axi::LineRequest& line, sim::TimePs now) override;

 private:
  /// One token bucket and its throttle bookkeeping.
  struct Bucket {
    Bucket(TokenBucket c, bool lim) : credit(c), limited(lim) {}
    TokenBucket credit;
    /// Regulated at all: always for the aggregate bucket, nonzero budget
    /// for a bank bucket.
    bool limited;
    bool exhausted = false;
    sim::TimePs exhausted_since = 0;
    /// Bytes granted since the current window began (overshoot stat).
    std::uint64_t window_bytes = 0;
    RegulatorStats stats;
  };

  [[nodiscard]] std::uint32_t bucket_of(axi::Addr addr) const {
    return bank_map_ ? bank_map_->decode(addr).bank : 0;
  }
  void schedule_replenish();
  void on_replenish(std::uint64_t epoch);
  void begin_window();
  void restart_schedule();
  void apply_replenish();
  void debit_landed(Bucket& b, sim::TimePs now);
  void close_throttle(Bucket& b, sim::TimePs now);
  void reevaluate_exhaustion(Bucket& b);
  void trace_throttle_end(const Bucket& b, sim::TimePs now);
  void trace_tokens(sim::TimePs now);

  sim::Simulator& sim_;
  RegulatorConfig cfg_;
  std::optional<dram::AddressMapper> bank_map_;
  std::vector<Bucket> buckets_;
  std::uint64_t irqs_dropped_ = 0;
  std::uint64_t irqs_delayed_ = 0;
  std::uint64_t epoch_ = 0;   ///< bumped on reconfiguration (stale events)
  std::uint64_t window_ = 0;  ///< bumped at every window start (late debits)
  sim::TimePs window_start_ = 0;
  sim::EventQueue::RecurringId replenish_event_ = 0;
  std::uint32_t prof_tag_ = 0;  ///< host-profiler attribution tag
  IrqFaultFn irq_fault_;
  telemetry::TraceWriter* trace_ = nullptr;
  telemetry::TrackId track_;
  telemetry::DecisionJournal* journal_ = nullptr;
};

}  // namespace fgqos::qos

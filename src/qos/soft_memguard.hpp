/// \file soft_memguard.hpp
/// \brief Software bandwidth-regulation baseline (MemGuard-style).
///
/// Models the classic OS-level regulator the paper compares against:
///  * a periodic timer (default 1 ms) defines the regulation period;
///  * per-master byte budgets are charged from PMU-style counters;
///  * when a counter overflows its budget, an interrupt is raised and the
///    offending master is parked until the period ends — but only after the
///    interrupt delivery + ISR latency has elapsed, during which the master
///    keeps hammering memory (the "violation bytes" the paper's
///    tightly-coupled regulator eliminates);
///  * at each period boundary all masters are released and counters reset.
///
/// Attach to each regulated port with add_gate() only (gates observe their
/// own grants through TxnGate::on_grant). A period boundary or a budget
/// write signals reopened(), a stall landing closed().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axi/port.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/trace.hpp"

namespace fgqos::telemetry {
class DecisionJournal;
}

namespace fgqos::qos {

/// SoftMemguard configuration.
struct SoftMemguardConfig {
  std::string name = "memguard_sw";
  /// Regulation period (OS timer tick).
  sim::TimePs period_ps = sim::kPsPerMs;
  /// Interrupt delivery + ISR entry + throttle actuation latency.
  sim::TimePs isr_latency_ps = 3 * sim::kPsPerUs;
  /// IRQ-loss hardening: when an overflow IRQ is detected as lost (the
  /// fault seam dropped it), re-deliver with exponential backoff
  /// (isr_latency * 2^attempt, capped by irq_max_retries) instead of
  /// silently letting the master run unthrottled for the whole period.
  bool irq_retry = false;
  std::uint32_t irq_max_retries = 3;
};

/// Instance-wide IRQ-path fault/hardening statistics.
struct SoftMemguardIrqStats {
  std::uint64_t irqs_dropped = 0;  ///< deliveries lost to an injected fault
  std::uint64_t irqs_delayed = 0;  ///< deliveries that landed late
  std::uint64_t irqs_retried = 0;  ///< re-deliveries scheduled (hardening)
  std::uint64_t irqs_lost = 0;     ///< dropped with retries off/exhausted
};

/// Per-master software regulation state and statistics.
struct SoftMemguardMasterStats {
  std::uint64_t periods_throttled = 0;  ///< periods in which a stall occurred
  std::uint64_t violation_bytes = 0;    ///< bytes granted after overflow,
                                        ///< before the stall took effect
  sim::TimePs throttled_ps = 0;         ///< cumulative parked time
};

/// The software regulator. One instance supervises many masters.
class SoftMemguard final : public axi::TxnGate {
 public:
  SoftMemguard(sim::Simulator& sim, SoftMemguardConfig cfg);

  /// Registers a master with a per-period byte budget of \p budget_bytes.
  /// 0 means unregulated. Call before attaching to the port.
  void set_budget(axi::MasterId master, std::uint64_t budget_bytes);

  /// Budget from a target rate.
  void set_rate(axi::MasterId master, double bytes_per_second);

  [[nodiscard]] const SoftMemguardConfig& config() const { return cfg_; }
  [[nodiscard]] const SoftMemguardMasterStats& master_stats(
      axi::MasterId master) const;
  /// Bytes counted for \p master in the current period.
  [[nodiscard]] std::uint64_t period_bytes(axi::MasterId master) const;
  [[nodiscard]] bool stalled(axi::MasterId master) const;

  /// Attaches the decision journal (nullptr detaches): stall deliveries,
  /// period releases of parked masters, and IRQ drops/delays/retries/losses
  /// are recorded as control actions.
  void set_journal(telemetry::DecisionJournal* journal) { journal_ = journal; }

  /// Attaches the Chrome-trace sink (nullptr detaches): overflow IRQs
  /// become instant events and each park a "stall m<N>" duration event,
  /// on a track named after this instance.
  void set_trace(telemetry::TraceWriter* writer);

  /// Emits trailing stall spans for masters still parked at the end of a
  /// run (call before TraceWriter::finish()).
  void flush_trace(sim::TimePs now);

  /// Fault seam on overflow-IRQ delivery. Return 0 to deliver normally,
  /// a positive delay (ps) to land the stall late, or sim::kTimeNever to
  /// drop the IRQ (recovered only by the retry hardening, if enabled).
  using IrqFaultFn = std::function<sim::TimePs(sim::TimePs)>;
  void set_irq_fault(IrqFaultFn fn) { irq_fault_ = std::move(fn); }

  [[nodiscard]] const SoftMemguardIrqStats& irq_stats() const {
    return irq_stats_;
  }

  // TxnGate: a stalled master may not be granted.
  [[nodiscard]] bool allow(const axi::LineRequest& line,
                           sim::TimePs now) const override;
  void on_grant(const axi::LineRequest& line, sim::TimePs now) override;

 private:
  struct MasterState {
    std::uint64_t budget = 0;       ///< per-period allowance, 0 = unregulated
    std::uint64_t bytes = 0;        ///< counted this period
    bool overflow_pending = false;  ///< IRQ in flight
    bool stalled = false;
    sim::TimePs stalled_since = 0;
    std::uint64_t period_of_last_stall = ~std::uint64_t{0};
    SoftMemguardMasterStats stats;
  };

  void ensure(axi::MasterId master);
  void on_period_tick();
  /// \p attempt counts re-deliveries (0 = the original IRQ); \p faultable
  /// is false for deliveries that already paid a fault-injected delay, so
  /// a 100%-probability delay fault cannot postpone a stall forever.
  void deliver_stall(axi::MasterId master, std::uint64_t period,
                     std::uint32_t attempt, bool faultable);
  void trace_stall_end(axi::MasterId master, const MasterState& st,
                       sim::TimePs now);

  sim::Simulator& sim_;
  SoftMemguardConfig cfg_;
  std::vector<MasterState> masters_;
  sim::EventQueue::RecurringId period_event_ = 0;
  std::uint32_t prof_tag_ = 0;  ///< host-profiler attribution tag
  std::uint64_t period_index_ = 0;
  IrqFaultFn irq_fault_;
  SoftMemguardIrqStats irq_stats_;
  telemetry::TraceWriter* trace_ = nullptr;
  telemetry::TrackId track_;
  telemetry::DecisionJournal* journal_ = nullptr;
};

}  // namespace fgqos::qos

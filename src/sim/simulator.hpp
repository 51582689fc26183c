/// \file simulator.hpp
/// \brief Event-driven simulator with clocked components and sleep/wake.
///
/// The kernel merges two sources of work on one picosecond timeline:
///  * one-shot and recurring events scheduled through EventQueue (timers,
///    interrupts, window boundaries), and
///  * per-cycle ticks of Clocked components.
///
/// Clocked components may sleep (tick() returns false) and are woken by
/// whoever hands them work (wake_at). The contract that makes this safe
/// is: a component may sleep, even with work pending, once it has
/// scheduled the first edge at which its tick can act, and every producer
/// that can move that edge earlier wakes it — with the time at which new
/// work becomes visible, or with wake_as_polled() for a change its tick
/// would read on the current edge. A component keeping this contract is
/// indistinguishable from one ticked every cycle.
///
/// Determinism: at equal timestamps, events fire before ticks (events in
/// schedule order, ticks in component-registration order). Two runs with
/// identical configuration and seeds are bit-identical.
///
/// Hot path: both queues are allocation-free 4-ary heaps (see dheap.hpp);
/// event closures are stored inline (see event.hpp); per-window periodic
/// work should use the recurring-event API so re-arming a timer costs one
/// heap push and no closure construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/clock_domain.hpp"
#include "sim/dheap.hpp"
#include "sim/event_queue.hpp"
#include "sim/prof.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace fgqos::sim {

class Simulator;

/// Base class for components ticked on clock edges.
class Clocked {
 public:
  /// Registers with \p sim. \p clk must outlive the component.
  Clocked(Simulator& sim, const ClockDomain& clk, std::string name);
  virtual ~Clocked();

  Clocked(const Clocked&) = delete;
  Clocked& operator=(const Clocked&) = delete;

  /// Called once per clock edge while awake. \p cycle is the edge index in
  /// this component's clock domain. Return true to be ticked again next
  /// cycle, false to sleep until woken.
  virtual bool tick(Cycles cycle) = 0;

  /// Wakes the component so that it ticks at the first edge at or after
  /// \p at (and never before the current time). No-op when already
  /// scheduled at or before that edge.
  void wake_at(TimePs at);

  /// Wakes the component at the next edge strictly after the current time.
  void wake();

  /// Wakes the component at the edge a component ticking every cycle
  /// would tick next: the edge at the current time when its turn there
  /// (registration order) has not been dispatched yet, else the next one.
  /// For a producer changing state the consumer's tick reads, this makes
  /// a sleeping consumer observe the change on the same edge as a polling
  /// one, whether the producer is an event, an earlier- or later-ordered
  /// tick, or host code between run_until() calls.
  void wake_as_polled();

  /// The edge wake_as_polled() wakes for: every earlier edge is one a
  /// component ticking every cycle would already have ticked.
  [[nodiscard]] Cycles next_polled_edge() const;

  [[nodiscard]] const ClockDomain& clock() const { return *clk_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulator& simulator() const { return sim_; }

  /// Number of tick() invocations this component has executed (telemetry:
  /// per-component dispatch attribution).
  [[nodiscard]] std::uint64_t ticks_fired() const { return ticks_fired_; }

  /// Ticks on which the component did useful work: those it reported with
  /// note_busy_tick() (a DRAM command, a crossbar grant).
  [[nodiscard]] std::uint64_t busy_ticks() const { return busy_ticks_; }

 protected:
  /// Counts the current tick as busy; call at most once per tick.
  void note_busy_tick() { ++busy_ticks_; }

 private:
  friend class Simulator;
  Simulator& sim_;
  const ClockDomain* clk_;
  std::string name_;
  std::uint64_t order_ = 0;   ///< registration order, for deterministic ties
  std::uint64_t ticks_fired_ = 0;
  std::uint64_t busy_ticks_ = 0;
  /// Host-profiler tag ("tick.<name>"), assigned lazily by the profiled
  /// run loop on this component's first profiled tick.
  std::uint32_t prof_tag_ = 0;
  bool scheduled_ = false;
  bool has_ticked_ = false;
  TimePs next_tick_ = 0;      ///< valid iff scheduled_
  /// Time of this component's latest tick-queue entry not yet popped
  /// (kTimeNever when none is known): re-arming for that edge reuses it.
  TimePs queued_tick_ = kTimeNever;
  // Cached edge indices so the run loop never divides by the clock period:
  // each tick costs an increment instead of a 64-bit division.
  Cycles next_cycle_ = 0;     ///< edge index of next_tick_; valid iff scheduled_
  Cycles last_cycle_ = 0;     ///< edge index last ticked; valid iff has_ticked_
};

/// The simulation kernel. Owns the timeline; does not own components.
/// All registered Clocked components must outlive any call to run().
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] TimePs now() const { return now_; }

  /// Schedules a one-shot callback at absolute time \p when (>= now).
  /// The callable must fit the InlineEvent contract (capture <= 48 B,
  /// nothrow-movable); oversized captures are a compile error. \p tag is
  /// the host-profiler attribution tag from profile_tag() (0 = untagged).
  template <typename F>
  void schedule_at(TimePs when, F&& fn, std::uint32_t tag = 0) {
    FGQOS_ASSERT(when >= now_, "schedule_at: time in the past");
    events_.schedule(when, std::forward<F>(fn), tag);
  }

  /// Schedules a one-shot callback \p delay after the current time.
  template <typename F>
  void schedule_after(TimePs delay, F&& fn, std::uint32_t tag = 0) {
    schedule_at(now_ + delay, std::forward<F>(fn), tag);
  }

  /// Registers a recurring closure (see EventQueue::make_recurring).
  /// Periodic work — window boundaries, replenish ticks, refresh — should
  /// register once and re-arm via schedule_recurring(): re-arming pushes a
  /// plain heap entry and constructs no closure. \p tag is stamped on
  /// every re-arm of this id, so the tag is registered exactly once per
  /// recurring event however long it lives.
  template <typename F>
  EventQueue::RecurringId make_recurring_event(F&& fn, std::uint32_t tag = 0) {
    return events_.make_recurring(std::forward<F>(fn), tag);
  }

  /// Arms recurring event \p id at absolute time \p when (>= now). \p arg
  /// is delivered to the closure (commonly a config epoch).
  void schedule_recurring(EventQueue::RecurringId id, TimePs when,
                          std::uint64_t arg = 0) {
    FGQOS_ASSERT(when >= now_, "schedule_recurring: time in the past");
    events_.schedule_recurring(id, when, arg);
  }

  /// Runs until the timeline is exhausted or time would exceed \p t_end.
  /// On return now() == t_end (or the time work ran out, if stop() was
  /// called). Events exactly at t_end are executed.
  void run_until(TimePs t_end);

  /// Runs for \p delta more picoseconds.
  void run_for(TimePs delta) { run_until(now_ + delta); }

  /// Requests that the current run() returns as soon as the in-flight
  /// timestamp finishes processing.
  void stop() { stop_requested_ = true; }

  /// Number of tick invocations executed so far (for micro-benchmarks).
  [[nodiscard]] std::uint64_t tick_count() const { return tick_count_; }

  // --- kernel self-profiling (telemetry) ---------------------------------

  /// Events dispatched so far (one-shot and recurring).
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return events_dispatched_;
  }
  /// Current event-queue occupancy.
  [[nodiscard]] std::size_t event_queue_size() const {
    return events_.size();
  }
  /// Current tick-queue occupancy, stale entries included.
  [[nodiscard]] std::size_t tick_queue_size() const { return ticks_.size(); }
  /// Largest event-queue occupancy observed so far.
  [[nodiscard]] std::size_t max_event_queue() const {
    return events_.max_size();
  }
  /// Wall-clock nanoseconds spent inside run_until() so far.
  [[nodiscard]] std::uint64_t wall_ns() const { return wall_ns_; }
  /// Wall-clock seconds per simulated second so far (simulation slowdown;
  /// 0 before the first run).
  [[nodiscard]] double wall_s_per_sim_s() const;

  // --- host profiling ----------------------------------------------------

  /// Attaches a host profiler: \p table receives per-tag cycle
  /// attribution and dispatch counts, \p register_tag maps tag
  /// names to ids (owned by the telemetry::HostProfiler behind it; the
  /// indirection keeps sim/ free of telemetry types). Pass nullptr to
  /// detach. When no profiler is attached the run loop takes exactly one
  /// predicted branch extra per run_until() call — nothing per event.
  void set_profiler(ProfTable* table,
                    std::function<std::uint32_t(std::string_view)>
                        register_tag) {
    FGQOS_ASSERT(!running_, "set_profiler while running");
    prof_ = table;
    prof_register_ = std::move(register_tag);
  }

  /// Registers (idempotently) the attribution tag named \p name with the
  /// attached profiler; returns 0 — the untagged bucket — when profiling
  /// is off, so components can tag unconditionally at construction time.
  [[nodiscard]] std::uint32_t profile_tag(std::string_view name) {
    return prof_ != nullptr && prof_register_ ? prof_register_(name) : 0;
  }

 private:
  friend class Clocked;

  void register_clocked(Clocked& c);
  void push_tick(Clocked& c);
  /// True when a tick of registration order \p order at edge time \p when
  /// lies at or before the dispatch position (see fired_when_).
  [[nodiscard]] bool tick_dispatched(TimePs when, std::uint64_t order) const {
    return fired_when_ != kTimeNever &&
           (when < fired_when_ || (when == fired_when_ && order <= fired_order_));
  }

  template <bool kProfile>
  void run_loop(TimePs t_end);

  struct TickEntry {
    TimePs when;
    std::uint64_t order;
    Clocked* comp;
  };
  struct TickBefore {
    bool operator()(const TickEntry& a, const TickEntry& b) const {
      if (a.when != b.when) {
        return a.when < b.when;
      }
      return a.order < b.order;
    }
  };

  EventQueue events_;
  DHeap<TickEntry, TickBefore, 4> ticks_;
  TimePs now_ = 0;
  std::uint64_t next_order_ = 0;
  std::uint64_t tick_count_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t wall_ns_ = 0;
  bool running_ = false;
  bool stop_requested_ = false;
  ProfTable* prof_ = nullptr;  ///< null = profiling off (the common case)
  std::function<std::uint32_t(std::string_view)> prof_register_;
  /// Dispatch position: (time, registration order) of the last tick
  /// dispatched. Ticks of one timestamp run in registration order, so
  /// every tick at or before it has run; after a completed run_until(t),
  /// every edge at or before t has. kTimeNever before the first tick.
  TimePs fired_when_ = kTimeNever;
  std::uint64_t fired_order_ = 0;
};

}  // namespace fgqos::sim

#include "sim/simulator.hpp"

#include <chrono>

#include "util/assert.hpp"

namespace fgqos::sim {

Clocked::Clocked(Simulator& sim, const ClockDomain& clk, std::string name)
    : sim_(sim), clk_(&clk), name_(std::move(name)) {
  sim_.register_clocked(*this);
}

Clocked::~Clocked() {
  FGQOS_ASSERT(!sim_.running_,
               "Clocked destroyed while the simulator is running");
  // Any stale heap entries referring to this component are discarded by the
  // lazy-deletion check in run_until (scheduled_ is reset here).
  scheduled_ = false;
}

void Clocked::wake_at(TimePs at) {
  if (at < sim_.now()) {
    at = sim_.now();
  }
  Cycles cyc = clk_->edge_index_at_or_after(at);
  if (has_ticked_ && cyc <= last_cycle_) {
    // Never re-tick an edge that already fired: work that became visible
    // during cycle N is processed at cycle N+1, as in hardware.
    cyc = last_cycle_ + 1;
  }
  const TimePs edge = clk_->edge_time(cyc);
  if (scheduled_ && next_tick_ <= edge) {
    return;
  }
  // Re-scheduling to an earlier edge leaves a stale entry in the heap; the
  // run loop discards entries whose time no longer matches next_tick_, and
  // push_tick() reuses it if the component re-arms for its edge.
  next_tick_ = edge;
  next_cycle_ = cyc;
  scheduled_ = true;
  sim_.push_tick(*this);
}

void Clocked::wake() { wake_at(sim_.now() + 1); }

void Clocked::wake_as_polled() { wake_at(clk_->edge_time(next_polled_edge())); }

Cycles Clocked::next_polled_edge() const {
  const TimePs now = sim_.now();
  const Cycles edge = clk_->edge_index_at_or_after(now);
  const bool on_edge = clk_->edge_time(edge) == now;
  return on_edge && sim_.tick_dispatched(now, order_) ? edge + 1 : edge;
}

void Simulator::register_clocked(Clocked& c) {
  c.order_ = next_order_++;
  // Components start awake at their first edge at or after the current
  // time; idle ones will put themselves to sleep on their first tick.
  c.next_cycle_ = c.clk_->edge_index_at_or_after(now_);
  c.next_tick_ = c.clk_->edge_time(c.next_cycle_);
  c.scheduled_ = true;
  push_tick(c);
}

void Simulator::push_tick(Clocked& c) {
  // A component woken early and re-arming for the far edge it slept
  // towards finds that edge's entry still queued: the entry pops with the
  // same (time, order) key a new one would, so it serves unchanged.
  if (c.queued_tick_ == c.next_tick_) {
    return;
  }
  if (c.queued_tick_ == kTimeNever || c.queued_tick_ < c.next_tick_) {
    c.queued_tick_ = c.next_tick_;
  }
  ticks_.push(TickEntry{c.next_tick_, c.order_, &c});
}

double Simulator::wall_s_per_sim_s() const {
  if (now_ == 0) {
    return 0.0;
  }
  return static_cast<double>(wall_ns_) * 1e3 / static_cast<double>(now_);
}

void Simulator::run_until(TimePs t_end) {
  // The whole profiling price when disabled is this one predicted branch
  // per run_until() call; the kProfile=false instantiation is the exact
  // pre-profiler loop.
  if (prof_ != nullptr) {
    run_loop<true>(t_end);
  } else {
    run_loop<false>(t_end);
  }
}

template <bool kProfile>
void Simulator::run_loop(TimePs t_end) {
  FGQOS_ASSERT(!running_, "run_until: re-entrant call");
  running_ = true;
  stop_requested_ = false;
  const auto wall_start = std::chrono::steady_clock::now();
  // Fence-post cycle attribution: the span between consecutive counter
  // reads is charged to the dispatch that ended it (heap ops and loop
  // bookkeeping ride along with the work they set up), and the tail after
  // the last dispatch goes to kernel.overhead — so the per-tag cycles of
  // a run sum exactly to total_cycles.
  std::uint64_t c_prev = kProfile ? prof_now_cycles() : 0;
  const std::uint64_t c_start = c_prev;
  while (!stop_requested_) {
    const TimePs ev_t = events_.next_time();
    const TimePs tk_t = ticks_.empty() ? kTimeNever : ticks_.top().when;
    const TimePs next = ev_t < tk_t ? ev_t : tk_t;
    if (next > t_end) {
      break;
    }
    now_ = next;
    // Events fire before ticks at equal timestamps.
    if (ev_t <= tk_t && ev_t != kTimeNever) {
      ++events_dispatched_;
      events_.run_next<kProfile>();
      if constexpr (kProfile) {
        const std::uint64_t c = prof_now_cycles();
        prof_->hit(events_.last_dispatch_tag(), c - c_prev);
        ++prof_->events_dispatched;
        c_prev = c;
      }
      continue;
    }
    const TickEntry e = ticks_.pop();
    Clocked& c = *e.comp;
    if (c.queued_tick_ == e.when) {
      c.queued_tick_ = kTimeNever;
    }
    if (!c.scheduled_ || c.next_tick_ != e.when) {
      continue;  // stale lazy-deleted entry
    }
    ++tick_count_;
    ++c.ticks_fired_;
    fired_when_ = e.when;
    fired_order_ = e.order;
    c.has_ticked_ = true;
    const Cycles cycle = c.next_cycle_;
    c.last_cycle_ = cycle;
    // Unschedule before ticking so the component may call wake_at() on
    // itself (e.g. to fast-forward over a long compute phase) and then
    // return false.
    c.scheduled_ = false;
    if constexpr (kProfile) {
      if (c.prof_tag_ == 0 && prof_register_) {
        c.prof_tag_ = prof_register_("tick." + c.name_);
      }
    }
    if (c.tick(cycle)) {
      const TimePs next_edge = e.when + c.clk_->period_ps();
      if (!c.scheduled_ || c.next_tick_ > next_edge) {
        c.next_tick_ = next_edge;
        c.next_cycle_ = cycle + 1;
        c.scheduled_ = true;
        push_tick(c);
      }
    }
    // When tick() returned false, any wake_at() it performed stands.
    if constexpr (kProfile) {
      const std::uint64_t cy = prof_now_cycles();
      prof_->hit(c.prof_tag_, cy - c_prev);
      ++prof_->ticks_dispatched;
      c_prev = cy;
    }
  }
  if (!stop_requested_) {
    if (now_ < t_end) {
      now_ = t_end;
    }
    // Every edge up to t_end would have ticked.
    fired_when_ = now_;
    fired_order_ = ~std::uint64_t{0};
  }
  if constexpr (kProfile) {
    const std::uint64_t c_end = prof_now_cycles();
    prof_->hit(kProfTagOverhead, c_end - c_prev);
    prof_->total_cycles += c_end - c_start;
  }
  wall_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  running_ = false;
}

template void Simulator::run_loop<false>(TimePs);
template void Simulator::run_loop<true>(TimePs);

}  // namespace fgqos::sim

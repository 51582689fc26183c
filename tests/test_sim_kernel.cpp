// Unit tests for the simulation kernel: events, clocks, sleep/wake,
// determinism, histogram and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock_domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/histogram.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace fgqos::sim {
namespace {

TEST(ClockDomain, PeriodFromMhz) {
  const auto clk = ClockDomain::from_mhz("cpu", 1000);
  EXPECT_EQ(clk.period_ps(), 1000u);
  EXPECT_EQ(ClockDomain::from_mhz("d", 1200).period_ps(), 833u);
}

TEST(ClockDomain, EdgeMath) {
  ClockDomain clk("c", 100);
  EXPECT_EQ(clk.edge_time(3), 300u);
  EXPECT_EQ(clk.cycles_at(299), 2u);
  EXPECT_EQ(clk.next_edge_at_or_after(0), 0u);
  EXPECT_EQ(clk.next_edge_at_or_after(1), 100u);
  EXPECT_EQ(clk.next_edge_at_or_after(100), 100u);
  EXPECT_EQ(clk.ps_to_cycles_ceil(101), 2u);
}

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(20, [&] { fired.push_back(2); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(3); });
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NonTrivialCaptureDestroyedAfterDispatch) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::string out;
  q.schedule(5, [token, s = std::string("hello")]() mutable {
    s += "!";  // exercises the relocated (moved) closure state
  });
  q.schedule(10, [&out, tag = std::string("fired")] { out = tag; });
  EXPECT_EQ(token.use_count(), 2);
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(out, "fired");
  // The one-shot closure (and its shared_ptr capture) is destroyed after
  // dispatch, not parked in the recycled slot.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, RecurringFiresPerArmWithPayload) {
  EventQueue q;
  std::vector<std::uint64_t> args;
  const EventQueue::RecurringId id =
      q.make_recurring([&](std::uint64_t arg) { args.push_back(arg); });
  // Multiple outstanding arms of the same id each fire once, in time order,
  // delivering their per-schedule payload.
  q.schedule_recurring(id, 30, 3);
  q.schedule_recurring(id, 10, 1);
  q.schedule_recurring(id, 20, 2);
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(args, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, OneShotAndRecurringShareScheduleOrderAtEqualTime) {
  EventQueue q;
  std::vector<int> fired;
  const EventQueue::RecurringId id =
      q.make_recurring([&](std::uint64_t) { fired.push_back(2); });
  q.schedule(100, [&] { fired.push_back(1); });
  q.schedule_recurring(id, 100);
  q.schedule(100, [&] { fired.push_back(3); });
  while (!q.empty()) {
    q.run_next();
  }
  // Ties at equal time resolve by schedule order across both kinds.
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleDuringDispatchRecyclesSlots) {
  EventQueue q;
  int fired = 0;
  for (TimePs i = 0; i < 64; ++i) {
    // Each event reschedules a follow-up from inside its own dispatch.
    q.schedule(i, [&q, &fired, i] {
      ++fired;
      q.schedule(100 + i, [&fired] { ++fired; });
    });
  }
  while (!q.empty()) {
    q.run_next();
  }
  EXPECT_EQ(fired, 128);
  // Follow-ups reuse slots freed by the first wave: occupancy never
  // exceeded the initial 64 plus the in-dispatch overlap.
  EXPECT_LE(q.max_size(), 65u);
}

TEST(ObjectPool, RecyclesSlotsAndTracksLiveCount) {
  ObjectPool<int> pool(4);
  EXPECT_EQ(pool.capacity(), 0u);
  int* a = pool.create(1);
  int* b = pool.create(2);
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.capacity(), 4u);
  pool.destroy(b);
  EXPECT_EQ(pool.live(), 1u);
  // LIFO free list: the freed slot is handed out again (cache-warm reuse).
  int* c = pool.create(3);
  EXPECT_EQ(c, b);
  // Growth adds whole slabs; existing pointers stay valid.
  std::vector<int*> more;
  for (int i = 0; i < 10; ++i) {
    more.push_back(pool.create(i));
  }
  EXPECT_EQ(pool.capacity(), 12u);
  EXPECT_EQ(pool.live(), 12u);
  EXPECT_EQ(*a, 1);
  for (int* p : more) {
    pool.destroy(p);
  }
  EXPECT_EQ(pool.live(), 2u);
}

TEST(Simulator, RunsEventsUpToDeadline) {
  Simulator s;
  int hits = 0;
  s.schedule_at(100, [&] { ++hits; });
  s.schedule_at(200, [&] { ++hits; });
  s.schedule_at(201, [&] { ++hits; });
  s.run_until(200);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(s.now(), 200u);
  s.run_until(300);
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(s.now(), 300u);
}

/// Ticks for a fixed number of cycles then sleeps until woken.
class TickNTimes final : public Clocked {
 public:
  TickNTimes(Simulator& s, const ClockDomain& clk, int n)
      : Clocked(s, clk, "ticker"), remaining_(n) {}
  std::vector<TimePs> tick_times;

  bool tick(Cycles) override {
    tick_times.push_back(simulator().now());
    return --remaining_ > 0;
  }
  void rearm(int n) {
    remaining_ = n;
    wake();
  }

 private:
  int remaining_;
};

TEST(Simulator, ClockedTicksOnEdges) {
  Simulator s;
  ClockDomain clk("c", 100);
  TickNTimes t(s, clk, 3);
  s.run_until(10'000);
  EXPECT_EQ(t.tick_times, (std::vector<TimePs>{0, 100, 200}));
}

TEST(Simulator, WakeResumesAtNextEdgeStrictlyAfterNow) {
  Simulator s;
  ClockDomain clk("c", 100);
  TickNTimes t(s, clk, 1);  // ticks once at t=0, then sleeps
  s.schedule_at(250, [&] { t.rearm(2); });
  s.run_until(10'000);
  EXPECT_EQ(t.tick_times, (std::vector<TimePs>{0, 300, 400}));
}

TEST(Simulator, WakeOnOwnTickEdgeDoesNotDoubleTick) {
  Simulator s;
  ClockDomain clk("c", 100);
  TickNTimes t(s, clk, 1);  // ticks at 0 then sleeps
  // Event at exactly t=0 fires before the tick; wake_at(0) while the
  // component is still scheduled must not add a second tick at 0.
  s.schedule_at(0, [&] { t.wake_at(0); });
  s.run_until(500);
  EXPECT_EQ(t.tick_times, (std::vector<TimePs>{0}));
}

/// Sleeps until edge time \p at, then calls wake_as_polled() on the target
/// from its own tick.
class Poker final : public Clocked {
 public:
  Poker(Simulator& s, const ClockDomain& clk, TimePs at)
      : Clocked(s, clk, "poker"), at_(at) {}
  Clocked* target = nullptr;

  bool tick(Cycles) override {
    if (simulator().now() == at_) {
      target->wake_as_polled();
    } else {
      wake_at(at_);
    }
    return false;
  }

 private:
  TimePs at_;
};

// wake_as_polled() lands on the edge a component ticking every cycle would
// tick next: the current edge unless its turn there has already been
// dispatched (a later-ordered tick, or host code after run_until()).
TEST(Simulator, WakeAsPolledLandsWhereAPollingTickWould) {
  const auto first_wake_tick = [](int producer) {
    Simulator s;
    ClockDomain clk("c", 100);
    // Registration order: early poker, sleeper, late poker.
    Poker early(s, clk, producer == 2 ? 300 : 100'000);
    TickNTimes t(s, clk, 1);  // ticks at 0, then sleeps
    Poker late(s, clk, producer == 3 ? 300 : 100'000);
    early.target = &t;
    late.target = &t;
    switch (producer) {
      case 0:  // event at an edge: events run before that edge's ticks
        s.schedule_at(300, [&t] { t.wake_as_polled(); });
        break;
      case 1:  // event between edges
        s.schedule_at(250, [&t] { t.wake_as_polled(); });
        break;
      case 4:  // host code after run_until() dispatched the edge
        s.run_until(300);
        t.wake_as_polled();
        break;
      default:
        break;
    }
    s.run_until(1'000);
    return t.tick_times.size() == 2 ? t.tick_times[1] : kTimeNever;
  };
  EXPECT_EQ(first_wake_tick(0), 300u);
  EXPECT_EQ(first_wake_tick(1), 300u);
  EXPECT_EQ(first_wake_tick(2), 300u);  // from an earlier-ordered tick
  EXPECT_EQ(first_wake_tick(3), 400u);  // from a later-ordered tick
  EXPECT_EQ(first_wake_tick(4), 400u);
}

/// Sleeps towards one far edge; every tick before it re-arms that edge.
class FarSleeper final : public Clocked {
 public:
  FarSleeper(Simulator& s, const ClockDomain& clk, TimePs far, int id,
             std::vector<std::pair<TimePs, int>>& log)
      : Clocked(s, clk, "sleeper"), far_(far), id_(id), log_(log) {}
  std::size_t max_tick_queue = 0;

  bool tick(Cycles) override {
    log_.emplace_back(simulator().now(), id_);
    max_tick_queue =
        std::max(max_tick_queue, simulator().tick_queue_size());
    if (simulator().now() < far_) {
      wake_at(far_);
    }
    return false;
  }

 private:
  TimePs far_;
  int id_;
  std::vector<std::pair<TimePs, int>>& log_;
};

// Components woken early again and again, each time going back to sleep
// towards the same far edge, reuse that edge's queued entry: the tick
// queue holds O(components) entries however many wakes there were, and
// ticks still dispatch in (time, registration order).
TEST(Simulator, RearmingAFarEdgeReusesItsQueuedTick) {
  Simulator s;
  ClockDomain clk("c", 100);
  constexpr TimePs kFar = 1'000'000;
  std::vector<std::pair<TimePs, int>> log;
  FarSleeper a(s, clk, kFar, 0, log);
  FarSleeper b(s, clk, kFar, 1, log);
  std::vector<std::pair<TimePs, int>> expected = {{0, 0}, {0, 1}};
  bool together = true;
  for (TimePs t = 250; t < kFar - 1000; t += 3'000, together = !together) {
    // b is always woken first; woken for the same edge, a still ticks
    // before b.
    const TimePs a_wake = together ? t : t + 100;
    s.schedule_at(t, [&b] { b.wake_at(b.simulator().now()); });
    s.schedule_at(a_wake, [&a] { a.wake_at(a.simulator().now()); });
    if (together) {
      expected.emplace_back(t + 50, 0);
      expected.emplace_back(t + 50, 1);
    } else {
      expected.emplace_back(t + 50, 1);
      expected.emplace_back(t + 150, 0);
    }
  }
  expected.emplace_back(kFar, 0);
  expected.emplace_back(kFar, 1);
  s.run_until(2 * kFar);
  EXPECT_EQ(log, expected);
  EXPECT_LE(a.max_tick_queue, 4u);
  EXPECT_LE(b.max_tick_queue, 4u);
  EXPECT_EQ(s.tick_queue_size(), 0u);
}

TEST(Simulator, TickCountAdvances) {
  Simulator s;
  ClockDomain clk("c", 10);
  TickNTimes t(s, clk, 5);
  s.run_until(1'000);
  EXPECT_EQ(s.tick_count(), 5u);
}

TEST(Xoshiro, DeterministicForEqualSeeds) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_seed = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    all_equal = all_equal && (va == b.next());
    any_diff_seed = any_diff_seed || (va != c.next());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed);
}

TEST(Xoshiro, BoundsRespected) {
  Xoshiro256 r(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, UniformishMean) {
  Xoshiro256 r(7);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    sum += r.next_double();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Histogram, ExactForSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.5);
  EXPECT_EQ(h.quantile(0.5), 15u);
}

TEST(Histogram, QuantileRelativeErrorBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) {
    h.record(v);
  }
  const auto p50 = static_cast<double>(h.p50());
  const auto p99 = static_cast<double>(h.p99());
  EXPECT_NEAR(p50, 50'000.0, 50'000.0 * 0.04);
  EXPECT_NEAR(p99, 99'000.0, 99'000.0 * 0.04);
  EXPECT_EQ(h.quantile(1.0), 100'000u);
}

TEST(Histogram, MergeAccumulates) {
  Histogram a, b;
  a.record_n(10, 5);
  b.record_n(1000, 5);
  a.merge(b);
  EXPECT_EQ(a.count(), 10u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, CdfIsMonotone) {
  Histogram h;
  Xoshiro256 r(3);
  for (int i = 0; i < 10'000; ++i) {
    h.record(r.next_below(1'000'000));
  }
  const auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].cumulative, cdf[i - 1].cumulative);
  }
  EXPECT_EQ(cdf.back().cumulative, h.count());
}

TEST(Histogram, MergeEmptyIsNoOp) {
  Histogram a;
  Histogram b;
  a.merge(b);  // empty into empty
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_EQ(a.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  a.record(10);
  a.record(20);
  a.merge(b);  // empty into non-empty: stats unchanged
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
  EXPECT_DOUBLE_EQ(a.mean(), 15.0);
  b.merge(a);  // non-empty into empty: stats adopted (min not poisoned
               // by the empty histogram's sentinel)
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 10u);
  EXPECT_EQ(b.max(), 20u);
  EXPECT_EQ(b.p50(), 10u);
}

TEST(Histogram, QuantileAtExactBucketBoundaries) {
  // sub_bucket_bits = 5: values 0..31 land in exact single-value buckets,
  // so quantiles at exact rank boundaries are fully determined.
  Histogram h(5);
  for (std::uint64_t v = 0; v < 32; ++v) {
    h.record(v);
  }
  EXPECT_EQ(h.quantile(0.0), 0u);   // q <= 0 returns the minimum
  EXPECT_EQ(h.quantile(1.0), 31u);  // q >= 1 returns the maximum
  // q = k/32 needs ceil(k) samples: exactly the k-th smallest value.
  EXPECT_EQ(h.quantile(1.0 / 32.0), 0u);
  EXPECT_EQ(h.quantile(16.0 / 32.0), 15u);
  EXPECT_EQ(h.quantile(17.0 / 32.0), 16u);
  EXPECT_EQ(h.quantile(32.0 / 32.0), 31u);
  // Quantiles never exceed the recorded maximum even though the bucket
  // upper bound may (approximate region).
  Histogram g(5);
  g.record(1000);
  EXPECT_EQ(g.quantile(0.5), 1000u);
  EXPECT_EQ(g.p999(), 1000u);
}

TEST(WindowedBytes, SplitsIntoWindows) {
  WindowedBytes w(100);
  w.add(10, 7);
  w.add(50, 3);
  w.add(150, 5);   // closes window [0,100) with 10 bytes
  w.flush(400);    // closes [100,200)=5, [200,300)=0, [300,400)=0
  const auto& s = w.samples();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], 10u);
  EXPECT_EQ(s[1], 5u);
  EXPECT_EQ(s[2], 0u);
  EXPECT_EQ(s[3], 0u);
  EXPECT_EQ(w.total_bytes(), 15u);
  EXPECT_EQ(w.max_window_bytes(), 10u);
}

TEST(StatsRegistry, SetGet) {
  StatsRegistry r;
  r.set("a.b", 1.5);
  r.set("c", std::uint64_t{7});
  EXPECT_TRUE(r.contains("a.b"));
  EXPECT_DOUBLE_EQ(r.get("a.b"), 1.5);
  EXPECT_DOUBLE_EQ(r.get("c"), 7.0);
  EXPECT_FALSE(r.contains("zz"));
}

}  // namespace
}  // namespace fgqos::sim

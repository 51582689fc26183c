/// \file trace.hpp
/// \brief Chrome trace_event JSON writer (chrome://tracing / Perfetto).
///
/// Streams trace events to disk in the Trace Event Format understood by
/// chrome://tracing and ui.perfetto.dev:
///  * duration ("X") events for non-overlapping intervals — DRAM data
///    bursts, regulator throttle intervals, memguard stalls;
///  * async ("b"/"e") events keyed by transaction id for potentially
///    overlapping spans — per-transaction lifecycles on a port's track;
///  * counter ("C") events for token credit, window bandwidth and
///    event-queue occupancy tracks;
///  * instant ("i") events for point occurrences (IRQs, phase changes).
///
/// Tracks are organised as one synthetic "process" per subsystem category
/// (ports, dram, qos, workload, kernel) with one "thread" per component,
/// named through metadata events. A category bitmask (--trace-filter)
/// suppresses whole subsystems at registration time: a filtered component
/// receives an invalid track id and its emit calls return immediately.
///
/// Timestamps are microseconds (double) as the format requires; the
/// simulator's picosecond timeline is converted with full precision.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace fgqos::telemetry {

/// Trace categories, one bit each (see parse_categories()).
enum class Cat : std::uint8_t {
  kPort = 0,      ///< per-transaction lifecycle spans
  kDram,          ///< DRAM data-bus bursts, queue occupancy
  kQos,           ///< regulator/monitor/memguard activity
  kWorkload,      ///< traffic generators
  kKernel,        ///< simulation-kernel self-profiling
  kAttr,          ///< interference-attribution blame counters
};

inline constexpr std::uint32_t kAllCategories = 0x3F;

/// Returns the bit for one category.
[[nodiscard]] constexpr std::uint32_t cat_bit(Cat c) {
  return std::uint32_t{1} << static_cast<std::uint8_t>(c);
}

/// Short name used in the trace "cat" field and in --trace-filter.
[[nodiscard]] const char* cat_name(Cat c);

/// Parses a comma-separated category list ("port,dram") into a bitmask;
/// empty string or "all" selects every category. Throws ConfigError on
/// unknown names.
[[nodiscard]] std::uint32_t parse_categories(const std::string& filter);

/// Identifies one named track (synthetic thread) in the trace. Invalid
/// (filtered-out) tracks have id < 0; every emit call on them is a no-op.
struct TrackId {
  std::int32_t id = -1;
  Cat cat = Cat::kPort;
  [[nodiscard]] bool valid() const { return id >= 0; }
};

/// The streaming writer. One instance per output file; not thread-safe
/// (the simulator is single-threaded).
class TraceWriter {
 public:
  /// Opens \p path and writes the stream prologue. \p category_mask
  /// selects the subsystems recorded (kAllCategories = everything).
  TraceWriter(const std::string& path, std::uint32_t category_mask);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// True when \p c is selected by the category mask.
  [[nodiscard]] bool enabled(Cat c) const {
    return (mask_ & cat_bit(c)) != 0;
  }

  /// Registers a named track under category \p c; emits the thread_name
  /// metadata. Returns an invalid TrackId when the category is filtered.
  TrackId track(Cat c, const std::string& name);

  // The emit calls below are on simulation hot paths (instrumented
  // components call them per grant/completion). The disabled check is
  // inlined here so a filtered track or closed file costs one
  // well-predicted branch and no function call; only live events pay for
  // the out-of-line formatting in the _impl functions.

  /// Non-overlapping interval [ts, ts+dur] on \p t.
  void complete(TrackId t, const char* name, sim::TimePs ts, sim::TimePs dur) {
    if (live(t)) {
      complete_impl(t, name, ts, dur);
    }
  }
  /// Point event at \p ts.
  void instant(TrackId t, const char* name, sim::TimePs ts) {
    if (live(t)) {
      instant_impl(t, name, ts);
    }
  }
  /// Counter sample: series \p series of counter track \p t gets \p value.
  void counter(TrackId t, const char* series, sim::TimePs ts, double value) {
    if (live(t)) {
      counter_impl(t, series, ts, value);
    }
  }

  /// Async span begin/end, correlated by \p id within \p t's category.
  /// Overlapping ids each get their own lane in the viewer.
  void async_begin(TrackId t, const char* name, std::uint64_t id,
                   sim::TimePs ts) {
    if (live(t)) {
      async_begin_impl(t, name, id, ts);
    }
  }
  /// \p args_json, when non-empty, is a pre-rendered JSON object placed in
  /// the event's "args" field (e.g. per-hop latency breakdown).
  void async_end(TrackId t, const char* name, std::uint64_t id,
                 sim::TimePs ts, const std::string& args_json = "") {
    if (live(t)) {
      async_end_impl(t, name, id, ts, args_json);
    }
  }

  /// Number of events written so far (diagnostics and tests).
  [[nodiscard]] std::uint64_t events_written() const { return events_; }

  /// Writes the epilogue and closes the file. Idempotent.
  void finish();

 private:
  /// True when an emit call on \p t will actually write something.
  [[nodiscard]] bool live(TrackId t) const {
    return t.valid() && file_ != nullptr;
  }

  void complete_impl(TrackId t, const char* name, sim::TimePs ts,
                     sim::TimePs dur);
  void instant_impl(TrackId t, const char* name, sim::TimePs ts);
  void counter_impl(TrackId t, const char* series, sim::TimePs ts,
                    double value);
  void async_begin_impl(TrackId t, const char* name, std::uint64_t id,
                        sim::TimePs ts);
  void async_end_impl(TrackId t, const char* name, std::uint64_t id,
                      sim::TimePs ts, const std::string& args_json);

  void emit_prefix(TrackId t, const char ph, const char* name,
                   sim::TimePs ts);
  /// pid of a category's synthetic process (stable small integers).
  [[nodiscard]] static int pid_of(Cat c) {
    return static_cast<int>(c) + 1;
  }

  std::FILE* file_ = nullptr;
  std::uint32_t mask_;
  std::uint64_t events_ = 0;
  std::uint32_t procs_named_ = 0;  ///< categories with process_name emitted
  std::vector<std::string> track_names_;  ///< escaped, indexed by tid
};

}  // namespace fgqos::telemetry

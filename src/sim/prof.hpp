/// \file prof.hpp
/// \brief Kernel-facing host-profiling primitives (cycle counter + table).
///
/// The simulation kernel attributes host CPU time to component tags by
/// fence-post accounting: one cycle-counter read per dispatch, with the
/// span between consecutive reads charged to the event (or tick) that
/// just ran. Everything the kernel touches on that path lives here — a
/// fixed-size table of (count, cycles) per tag. The table is plain data
/// with no locks and no allocation after construction; it is written by
/// the one thread driving its Simulator and read at report time by
/// telemetry::HostProfiler, which owns it and the tag-name registry. Keeping
/// this header free of telemetry/ types preserves the sim -> telemetry
/// layering (telemetry depends on sim, never the reverse).
#pragma once

#include <array>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace fgqos::sim {

/// Reads the host cycle counter: rdtsc on x86-64 (cheap, monotonic on
/// modern invariant-TSC parts), steady_clock nanoseconds elsewhere. Only
/// ratios of spans ever leave the process, so the unit does not matter —
/// "cycles" in every export means "ticks of this counter".
inline std::uint64_t prof_now_cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// One tag's accumulator.
struct ProfTagStat {
  std::uint64_t count = 0;   ///< dispatches attributed to this tag
  std::uint64_t cycles = 0;  ///< cycle-counter ticks attributed
};

/// Well-known tag ids, registered by HostProfiler in this order before
/// any component tag. Tag 0 doubles as the sink for events scheduled
/// without a tag.
inline constexpr std::uint32_t kProfTagUntagged = 0;
/// Run-loop cycles after the last dispatch of a run_until() call (loop
/// bookkeeping tail). Charging it to a named tag keeps the accounting
/// exact: every measured cycle lands in exactly one tag.
inline constexpr std::uint32_t kProfTagOverhead = 1;

/// Fixed-size attribution table. All members are updated from the one
/// thread driving the owning Simulator and read off the hot path
/// (telemetry::HostProfiler::snapshot).
struct ProfTable {
  static constexpr std::size_t kMaxTags = 256;

  std::array<ProfTagStat, kMaxTags> tags{};

  std::uint64_t events_dispatched = 0;  ///< profiled event dispatches
  std::uint64_t ticks_dispatched = 0;   ///< profiled tick dispatches
  std::uint64_t total_cycles = 0;       ///< fence-post total inside run_until

  /// Charges \p cycles to \p tag; out-of-range tags (table overflow)
  /// fall back to the untagged bucket so accounting stays exact.
  void hit(std::uint32_t tag, std::uint64_t cycles) {
    ProfTagStat& s = tags[tag < kMaxTags ? tag : kProfTagUntagged];
    ++s.count;
    s.cycles += cycles;
  }
};

}  // namespace fgqos::sim

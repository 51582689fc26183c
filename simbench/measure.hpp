/// \file measure.hpp
/// \brief What the benchmark reads off a finished scenario from outside:
///        the output digest, exact work counts, and the grouping of host
///        profiler tags into layers.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "scenario.hpp"
#include "telemetry/profiler.hpp"

namespace simbench {

using Stats = std::map<std::string, double>;

/// Soc::collect_stats() without the host-work keys sim.* (ticks, events,
/// max queue): a change that only skips dead cycles keeps these.
[[nodiscard]] Stats output_stats(soc::Soc& chip);

/// True for keys only observers publish (attr.*, telemetry.*, qos.sla.*).
[[nodiscard]] bool is_observer_key(std::string_view key);

/// FNV-1a over every (name, value bit pattern); with \p skip_observer_keys
/// the observer namespaces are left out, so a run with observers on and
/// one with them off digest equal when observing perturbs nothing.
[[nodiscard]] std::uint64_t digest(const Stats& stats,
                                   bool skip_observer_keys = false);

/// Exact, host-independent work counts of a finished run.
struct WorkCounts {
  double sim_us = 0;
  std::array<std::uint64_t, kLayerCount> ticks{};  ///< ticks_fired by layer
  std::uint64_t dram_cas = 0;     ///< reads + writes serviced
  std::uint64_t xbar_lines = 0;   ///< lines granted by the crossbar
  std::uint64_t events = 0;       ///< kernel events dispatched
  std::uint64_t kernel_ticks = 0; ///< kernel tick dispatches
  std::uint64_t max_event_queue = 0;

  bool operator==(const WorkCounts&) const = default;
};

[[nodiscard]] WorkCounts work_counts(Scenario& s);

/// Layer of profiler tag \p tag: "tick.<name>" by the components the
/// scenario created, other tags by their prefix (dram., axi., workload.,
/// qos., telemetry., kernel.). nullopt for a tag outside the map.
[[nodiscard]] std::optional<Layer> layer_of_tag(std::string_view tag,
                                                const Scenario& s);

/// Profiled cycles summed by layer.
struct LayerCycles {
  std::array<std::uint64_t, kLayerCount> cycles{};
  std::uint64_t total = 0;  ///< every profiled cycle, mapped or not

  /// Share of all profiled cycles the layer map accounts for.
  [[nodiscard]] double coverage() const;
  void add(const LayerCycles& o);
};

[[nodiscard]] LayerCycles group_by_layer(
    const fgqos::telemetry::ProfileSnapshot& snap, const Scenario& s);

/// How much slower than the reference host the host runs now, from a fixed
/// yardstick of host work that needs nothing from src/, so that no change
/// to the model can move it. Two parts, each first run once untimed over
/// its data so that what the model left in the caches does not matter:
///  - core: a pointer chase through a 1 MiB ring (L2-resident), calls
///    through a 64-entry function table and data-dependent branches;
///  - memory: a pointer chase through a 4 MiB ring, twice the L2.
/// Each part's time over its time on the reference host (Intel Xeon 4-vCPU
/// VM, GCC 12.2, RelWithDebInfo, undisturbed); the result is the geometric
/// mean of the two. Timed next to every repetition, it lets contention from
/// other tenants of a shared host be divided out: the core part tracks
/// contention for the core and its caches, the memory part contention for
/// the memory system, which slows the memory-heavy workloads most.
[[nodiscard]] double host_slowdown();

}  // namespace simbench

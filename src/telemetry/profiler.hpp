/// \file profiler.hpp
/// \brief Host-side hot-path profiler: per-component CPU attribution,
///        kernel micro-telemetry, flamegraph export.
///
/// The paper's lesson — regulation is only as good as the monitoring it
/// is coupled to — applied to our own hot path: before restructuring the
/// event kernel (ROADMAP item 2) we need to know which component the host
/// cycles actually go to and what the event population looks like.
///
/// The profiler has two halves. The hot half lives in sim/prof.hpp: a
/// fixed-size per-thread ProfTable the kernel writes with no allocation
/// and no locks (one cycle-counter read per dispatch, fence-post
/// attribution, so per-tag cycles sum exactly to the measured total).
/// This header is the cold half: the tag-name registry (register once at
/// assembly time, idempotent by name), table ownership, and the merged
/// ProfileSnapshot with its exports — folded-stack text for flamegraph
/// tooling, a profile JSON document carrying the RunManifest, and
/// metrics-registry publication. Snapshots merge commutatively (sums by
/// tag name, histogram bucket adds), so per-job profiles folded in
/// ScenarioRunner submission order are identical for any --jobs count.
///
/// Zero-cost-when-disabled: with no profiler attached the kernel takes
/// one predicted branch per run_until() call and none per event; the
/// disabled-overhead gate in CI holds the profile-off golden CSVs
/// byte-identical and BENCH_micro events/s within 1%.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/prof.hpp"
#include "sim/simulator.hpp"

namespace fgqos::telemetry {

struct RunManifest;

/// Version of the profiler's tag-table layout and profile export schema.
/// Bump when the well-known tags, the folded-stack shape or the profile
/// JSON shape change incompatibly; fgqos_report refuses to diff profiles
/// across versions unless forced.
inline constexpr int kProfilerTagTableVersion = 1;

/// One merged tag in a snapshot.
struct ProfileTagEntry {
  std::string name;
  std::uint64_t count = 0;   ///< dispatches attributed
  std::uint64_t cycles = 0;  ///< cycle-counter ticks attributed
};

/// Peak occupancy of one slab arena (e.g. the DRAM controller's
/// transaction pool), sampled by the owning platform.
struct ProfileArenaStat {
  std::string name;
  std::uint64_t peak_live = 0;
  std::uint64_t capacity = 0;
};

/// Merged, export-ready view of one or more ProfTables. Plain data:
/// copyable, default-constructible, mergeable — sweep outcomes carry one
/// per point and fold them in submission order.
struct ProfileSnapshot {
  int tag_table_version = kProfilerTagTableVersion;
  std::uint64_t total_cycles = 0;
  std::uint64_t oneshot_scheduled = 0;
  std::uint64_t recurring_armed = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t ticks_dispatched = 0;
  /// Sorted by tag name, zero-cycle zero-count tags dropped — so the
  /// rendering is independent of registration and merge order.
  std::vector<ProfileTagEntry> tags;
  sim::Histogram heap_depth;
  sim::Histogram run_length;
  sim::Histogram arm_delta_ps;
  /// Sorted by arena name.
  std::vector<ProfileArenaStat> arenas;

  /// Folds \p other in: commutative and associative (per-name sums,
  /// histogram bucket adds, per-arena maxima), so any merge order yields
  /// the same snapshot.
  void merge(const ProfileSnapshot& other);

  /// Sum of per-tag cycles over total_cycles (1.0 by construction for a
  /// single table; the acceptance gate requires >= 0.95). 0 when empty.
  [[nodiscard]] double coverage() const;

  /// Writes the profile JSON document:
  ///   {"manifest":{...},"profile":{"tag_table_version":...,"tags":[...],
  ///    "heap_depth":{...},"run_length":{...},...}}
  /// The manifest member is omitted when \p manifest is null.
  void write_json(std::ostream& os, const RunManifest* manifest = nullptr) const;
  void save_json(const std::string& path,
                 const RunManifest* manifest = nullptr) const;
  /// Writes just the profile object (the value of the "profile" key);
  /// used to splice the section into other documents (BENCH_micro.json).
  void write_json_object(std::ostream& os) const;

  /// Writes folded-stack text for flamegraph tooling, one line per tag:
  ///   fgqos;<group>;<tag> <cycles>
  /// where <group> is the first dot-separated component of the tag name.
  void write_folded(std::ostream& os) const;
  void save_folded(const std::string& path) const;
};

/// The profiler: tag-name registry + table pool + snapshot/merge.
class HostProfiler {
 public:
  /// Tables this profiler can hand out (one per simulation thread; a
  /// platform uses exactly one).
  static constexpr std::size_t kMaxTables = 32;

  /// Registers the well-known tags (kernel.untagged, kernel.overhead) so
  /// their ids match sim::kProfTagUntagged / sim::kProfTagOverhead.
  HostProfiler();

  HostProfiler(const HostProfiler&) = delete;
  HostProfiler& operator=(const HostProfiler&) = delete;

  /// Returns the id of tag \p name, registering it on first use —
  /// idempotent, so recurring events re-registering across re-arms (or
  /// two components sharing a name) converge on one id. Throws
  /// ConfigError when the fixed table is full (ProfTable::kMaxTags).
  std::uint32_t register_tag(std::string_view name);

  /// Hands out the next free per-thread table. Thread-safe (one atomic
  /// bump); each table must only ever be written by one thread. Throws
  /// ConfigError when kMaxTables are in use.
  sim::ProfTable& acquire_table();

  /// Attaches this profiler to \p sim: acquires a table and wires the
  /// kernel's dispatch attribution and tag registration to it.
  void attach(sim::Simulator& sim);

  /// Records a slab-arena occupancy sample; keeps the per-arena peak.
  /// Cold path (called from metric collection, not per transaction).
  void record_arena(const std::string& name, std::uint64_t live,
                    std::uint64_t capacity);

  /// Merges every acquired table (and the arena peaks) into one
  /// export-ready snapshot. Call after the runs finish; reading tables
  /// concurrently with a running simulation is a data race.
  [[nodiscard]] ProfileSnapshot snapshot() const;

 private:
  std::vector<std::string> names_;              ///< id -> name
  std::map<std::string, std::uint32_t, std::less<>> ids_;  ///< name -> id
  std::array<std::unique_ptr<sim::ProfTable>, kMaxTables> tables_;
  std::atomic<std::size_t> tables_used_{0};
  std::map<std::string, ProfileArenaStat> arenas_;
};

}  // namespace fgqos::telemetry

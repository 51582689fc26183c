/// \file cache.hpp
/// \brief Set-associative write-back, write-allocate cache (tag-only).
///
/// Functional tag array with true-LRU replacement; no data storage (the
/// simulator is timing-only). Used for the CPU cluster's private L1s and
/// shared L2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "axi/types.hpp"
#include "sim/stats.hpp"

namespace fgqos::mem {

/// Geometry of one cache level.
struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 4;

  void validate() const;
  [[nodiscard]] std::uint64_t sets() const {
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) * ways);
  }
};

/// Outcome of one access.
struct CacheAccessResult {
  bool hit = false;
  /// On a miss: line address of a dirty victim that must be written back
  /// (nullopt when the victim was clean or the set had room).
  std::optional<axi::Addr> writeback_addr;
};

/// Cache statistics.
struct CacheStats {
  sim::Counter hits;
  sim::Counter misses;
  sim::Counter writebacks;

  [[nodiscard]] double hit_rate() const {
    const double total =
        static_cast<double>(hits.value() + misses.value());
    return total == 0 ? 0.0 : static_cast<double>(hits.value()) / total;
  }
};

/// The tag array.
class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  /// Performs an access: on a hit updates LRU (and the dirty bit for
  /// writes); on a miss allocates the line, evicting LRU if needed.
  CacheAccessResult access(axi::Addr addr, bool is_write);

  /// The hit half of access(): on a hit updates LRU and the dirty bit and
  /// returns true; on a miss changes nothing (not even the miss count).
  bool access_if_present(axi::Addr addr, bool is_write);

  /// True when the line holding \p addr is present (no LRU update).
  [[nodiscard]] bool probe(axi::Addr addr) const;

  /// Invalidates everything (dirty state is dropped; use for test setup).
  void flush();

 private:
  /// Index of the first way of \p addr's set in the per-line arrays.
  [[nodiscard]] std::size_t set_base(axi::Addr addr) const {
    return static_cast<std::size_t>((addr >> line_shift_) & set_mask_) *
           cfg_.ways;
  }
  /// The stored form of \p addr's tag: tag + 1, so 0 marks an invalid way.
  [[nodiscard]] std::uint64_t stored_tag(axi::Addr addr) const {
    return (addr >> tag_shift_) + 1;
  }
  /// Way holding stored tag \p tag in the set at \p base, or -1.
  [[nodiscard]] std::ptrdiff_t find(std::size_t base,
                                    std::uint64_t tag) const;
  /// Records a hit on line \p i.
  void touch(std::size_t i, bool is_write);

  CacheConfig cfg_;
  std::uint32_t line_shift_;  ///< log2(line_bytes)
  std::uint32_t tag_shift_;   ///< log2(line_bytes * sets)
  std::uint64_t set_mask_;    ///< sets - 1
  // Per line, sets * ways entries, row-major by set: a set's tags are
  // contiguous so a lookup compares one array.
  std::vector<std::uint64_t> tags_;  ///< stored_tag(), 0 = invalid
  std::vector<std::uint64_t> lru_;   ///< higher = more recently used
  std::vector<std::uint8_t> dirty_;
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;
};

}  // namespace fgqos::mem

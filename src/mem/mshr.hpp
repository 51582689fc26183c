/// \file mshr.hpp
/// \brief Miss Status Holding Registers: outstanding-miss tracking with
///        same-line merge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "axi/types.hpp"

namespace fgqos::mem {

/// Bounded set of in-flight miss line addresses. A second miss to a line
/// already in flight merges into the existing entry (no extra memory
/// transaction); capacity limits memory-level parallelism. The entries
/// are a flat array of at most capacity() lines, searched linearly: an
/// MSHR file holds a handful of lines, and a lookup runs on every L2
/// access.
class MshrFile {
 public:
  explicit MshrFile(std::size_t entries);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t in_flight() const { return entries_.size(); }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }

  /// True when \p line_addr already has an entry (a merge is free).
  [[nodiscard]] bool present(axi::Addr line_addr) const {
    return index_of(line_addr) < entries_.size();
  }

  /// Allocates an entry (or merges). Returns false when full and the line
  /// is not already present — the requester must stall.
  bool allocate(axi::Addr line_addr);

  /// Number of merged requests waiting on \p line_addr (1 = just the
  /// original miss).
  [[nodiscard]] std::uint32_t waiters(axi::Addr line_addr) const;

  /// Completes the miss and frees the entry. Returns the waiter count that
  /// was released. Pre: present(line_addr).
  std::uint32_t complete(axi::Addr line_addr);

  /// Total allocations that merged into an existing entry.
  [[nodiscard]] std::uint64_t merges() const { return merges_; }

 private:
  struct Entry {
    axi::Addr line = 0;
    std::uint32_t waiters = 0;
  };

  /// Position of \p line_addr's entry; entries_.size() when absent.
  [[nodiscard]] std::size_t index_of(axi::Addr line_addr) const {
    std::size_t i = 0;
    while (i < entries_.size() && entries_[i].line != line_addr) {
      ++i;
    }
    return i;
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;  ///< unordered; capacity reserved up front
  std::uint64_t merges_ = 0;
};

}  // namespace fgqos::mem

/// \file address_mapper.hpp
/// \brief Physical address -> (bank, row, column) decoding policies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axi/types.hpp"
#include "dram/timing.hpp"

namespace fgqos::dram {

/// Decoded DRAM coordinates of one burst-aligned address.
struct Decoded {
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  std::uint64_t column = 0;  ///< burst index within the row
};

/// How address bits are spread over banks and rows.
enum class MappingPolicy : std::uint8_t {
  /// row : bank : column — a sequential stream fills a whole row in one
  /// bank before moving on (maximum row locality, minimum parallelism).
  kRowBankColumn,
  /// row : column : bank — consecutive bursts rotate across banks
  /// (bank-interleaved; the common high-throughput default).
  kBankInterleaved,
  /// bank : row : column — the channel is carved into `banks` equal
  /// contiguous slices and a slice maps onto exactly one bank.  Masters
  /// given disjoint address slices therefore own disjoint banks, which is
  /// the substrate the per-bank regulation experiments partition over.
  kBankPartitioned,
};

/// Canonical CLI/JSON spelling of a mapping policy.
[[nodiscard]] const char* mapping_policy_name(MappingPolicy policy);

/// Inverse of mapping_policy_name(); throws ConfigError on unknown names.
[[nodiscard]] MappingPolicy mapping_policy_from_name(const std::string& name);

/// Decoder for a given geometry and policy.
///
/// Decoding wraps addresses into the channel capacity (callers may park
/// their footprint in any capacity-aligned physical window), but the mapper
/// tracks *capacity aliasing*: a decode lands out of range when its window
/// (`addr / capacity`) differs from the window that last touched the same
/// row-sized region of the channel.  A mis-sized scenario that silently
/// folds two masters onto the same rows is therefore counted rather than
/// invisible, and `strict` mode turns the first such decode into a
/// ConfigError.
class AddressMapper {
 public:
  AddressMapper(const TimingConfig& cfg, MappingPolicy policy,
                bool strict = false);

  [[nodiscard]] Decoded decode(axi::Addr addr) const;
  [[nodiscard]] MappingPolicy policy() const { return policy_; }
  [[nodiscard]] std::uint32_t banks() const { return banks_; }

  /// Decodes that aliased a row-region already claimed by a different
  /// capacity window (see class comment).  0 for well-sized scenarios.
  [[nodiscard]] std::uint64_t oob_decodes() const { return oob_decodes_; }

 private:
  MappingPolicy policy_;
  bool strict_;
  std::uint64_t burst_bytes_;
  std::uint64_t bursts_per_row_;
  std::uint32_t banks_;
  std::uint64_t capacity_;
  std::uint64_t row_bytes_;
  // Alias tracking is observability, not decode state, hence mutable.
  mutable std::uint64_t oob_decodes_ = 0;
  mutable std::vector<std::uint32_t> region_window_;  ///< lazily sized
};

}  // namespace fgqos::dram

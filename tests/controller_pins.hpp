/// \file controller_pins.hpp
/// \brief The seeded DRAM controller streams ControllerPinned records
///        (defined in test_dram.cpp), shared with the attribution tests.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/address_mapper.hpp"
#include "dram/controller.hpp"
#include "sim/time.hpp"

namespace fgqos::dram {

/// How a pinned stream offers its lines.
enum class PinStream : std::uint8_t {
  /// Three masters stream sequentially and sometimes jump anywhere;
  /// write-heavy and read-heavy phases alternate across both drain
  /// watermarks.
  kRandom,
  /// The exp1_unreg pattern: four sequential readers 64 MiB apart keep the
  /// read queue full, so nearly every line needs its own ACT (tFAW-bound).
  kSeqReaders,
};

struct PinCase {
  const char* name;
  PagePolicy page;
  MappingPolicy mapping;
  std::uint64_t starvation_cycles;
  std::uint32_t refresh_divisor;
  bool attribution;
  std::uint64_t seed;
  std::uint64_t digest;
  /// Ticks of the controller forced to tick every cycle while work is
  /// queued (testing::ForcedPoll).
  std::uint64_t ticks;
  /// Channel geometry (TimingConfig::banks, bank_groups).
  std::uint32_t banks = 16;
  std::uint32_t bank_groups = 4;
  PinStream stream = PinStream::kRandom;
};

struct PinResult {
  std::uint64_t digest;
  std::uint64_t ticks;
  /// The controller's busy ticks, and the commands it issued (CAS, ACT,
  /// conflict PRE and refresh).
  std::uint64_t busy_ticks;
  std::uint64_t commands;
  /// testing::blame_record() and blame_totals() of the run; empty without
  /// attribution.
  std::vector<std::uint64_t> blame;
  std::vector<std::uint64_t> totals;
};

extern const std::vector<PinCase> kPinCases;

/// Runs \p pc's stream; \p poll forces the controller to tick every cycle
/// while work is queued. \p blame_window_ps is the attribution window;
/// without \p keep_windows the blame record holds the totals alone.
/// \p observer, when set, sees every command the controller issues.
PinResult run_pin_case(const PinCase& pc, bool poll = false,
                       sim::TimePs blame_window_ps = sim::kPsPerUs,
                       bool keep_windows = true,
                       CommandObserver* observer = nullptr);

}  // namespace fgqos::dram

/// \file types.hpp
/// \brief Basic identifiers and enums of the AXI-like fabric model.
#pragma once

#include <cstdint>

namespace fgqos::axi {

/// Index of a master port within one interconnect (dense, 0-based).
using MasterId = std::uint16_t;

/// Globally unique transaction id (monotonic per interconnect).
using TxnId = std::uint64_t;

/// Physical byte address.
using Addr = std::uint64_t;

/// Transfer direction, AXI read or write channel.
enum class Dir : std::uint8_t { kRead = 0, kWrite = 1 };

/// AXI AxQOS-style 4-bit priority; larger is more important.
using QosValue = std::uint8_t;
inline constexpr QosValue kQosBestEffort = 0;
inline constexpr QosValue kQosCritical = 15;

}  // namespace fgqos::axi

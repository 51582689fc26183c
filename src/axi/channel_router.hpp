/// \file channel_router.hpp
/// \brief Address-interleaved routing to multiple memory channels.
///
/// Larger devices of the family (Versal, MPSoC with PL-DDR) expose more
/// than one DRAM channel; lines are interleaved across channels on a
/// configurable granularity. The router implements SlaveIf towards the
/// crossbar and fans out to one Controller per channel; responses and
/// freed space flow back through the shared ResponseSink unchanged (the
/// LineRequest keeps its transaction pointer).
#pragma once

#include <cstdint>
#include <vector>

#include "axi/interconnect.hpp"
#include "axi/transaction.hpp"

namespace fgqos::axi {

/// The router. Channels are wired at construction and must outlive it.
class ChannelRouter final : public SlaveIf {
 public:
  /// \param channels    one SlaveIf per channel (>= 1)
  /// \param stride_bytes interleave granularity; must be a power of two
  ///        and at least the line size in use.
  ChannelRouter(std::vector<SlaveIf*> channels, std::uint64_t stride_bytes);

  [[nodiscard]] std::uint64_t stride_bytes() const { return stride_; }

  /// Channel index for an address (exposed for tests and stats).
  [[nodiscard]] std::size_t route(Addr addr) const {
    return (addr / stride_) % channels_.size();
  }

  /// Lines routed per channel so far.
  [[nodiscard]] std::uint64_t routed(std::size_t channel) const {
    return counts_.at(channel);
  }

  // SlaveIf
  [[nodiscard]] bool can_accept(const LineRequest& line,
                                sim::TimePs now) const override;
  void accept(LineRequest line, sim::TimePs now) override;

 private:
  std::vector<SlaveIf*> channels_;
  std::uint64_t stride_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace fgqos::axi

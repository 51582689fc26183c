#include "axi/channel_router.hpp"

#include <utility>

#include "util/config_error.hpp"

namespace fgqos::axi {

ChannelRouter::ChannelRouter(std::vector<SlaveIf*> channels,
                             std::uint64_t stride_bytes)
    : channels_(std::move(channels)), stride_(stride_bytes) {
  config_check(!channels_.empty(), "ChannelRouter: needs >= 1 channel");
  for (const auto* c : channels_) {
    config_check(c != nullptr, "ChannelRouter: null channel");
  }
  config_check(stride_ > 0 && (stride_ & (stride_ - 1)) == 0,
               "ChannelRouter: stride must be a power of two");
  counts_.assign(channels_.size(), 0);
}

bool ChannelRouter::can_accept(const LineRequest& line,
                               sim::TimePs now) const {
  return channels_[route(line.addr)]->can_accept(line, now);
}

void ChannelRouter::accept(LineRequest line, sim::TimePs now) {
  const std::size_t ch = route(line.addr);
  ++counts_[ch];
  channels_[ch]->accept(line, now);
}

}  // namespace fgqos::axi

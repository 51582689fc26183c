#include "axi/arbiter.hpp"

#include <algorithm>

#include "util/config_error.hpp"

namespace fgqos::axi {

int RoundRobinArbiter::pick(const std::vector<bool>& eligible,
                            sim::TimePs /*now*/) {
  const std::size_t n = eligible.size();
  if (n == 0) {
    return -1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (next_ + k) % n;
    if (eligible[i]) {
      next_ = (i + 1) % n;
      return static_cast<int>(i);
    }
  }
  return -1;
}

FixedPriorityArbiter::FixedPriorityArbiter(std::vector<int> priority)
    : priority_(std::move(priority)) {
  config_check(!priority_.empty(), "FixedPriorityArbiter: empty priority set");
}

int FixedPriorityArbiter::pick(const std::vector<bool>& eligible,
                               sim::TimePs /*now*/) {
  config_check(eligible.size() == priority_.size(),
               "FixedPriorityArbiter: master count mismatch");
  const std::size_t n = eligible.size();
  int best_level = INT32_MIN;
  int best = -1;
  // Scan in rotating order so equal-priority masters share fairly.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (rr_next_ + k) % n;
    if (eligible[i] && priority_[i] > best_level) {
      best_level = priority_[i];
      best = static_cast<int>(i);
    }
  }
  if (best >= 0) {
    rr_next_ = (static_cast<std::size_t>(best) + 1) % n;
  }
  return best;
}

}  // namespace fgqos::axi

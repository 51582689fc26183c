#include "sim/stats.hpp"

#include <algorithm>

#include "util/config_error.hpp"

namespace fgqos::sim {

WindowedBytes::WindowedBytes(TimePs window_ps)
    : window_ps_(window_ps), window_end_(window_ps) {
  config_check(window_ps > 0, "WindowedBytes: window must be > 0");
}

void WindowedBytes::close_until(TimePs now) {
  while (now >= window_end_) {
    samples_.push_back(current_);
    current_ = 0;
    window_end_ += window_ps_;
  }
}

void WindowedBytes::add(TimePs now, std::uint64_t bytes) {
  close_until(now);
  current_ += bytes;
  total_ += bytes;
}

void WindowedBytes::flush(TimePs now) { close_until(now); }

std::uint64_t WindowedBytes::max_window_bytes() const {
  if (samples_.empty()) {
    return 0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

void StatsRegistry::set(const std::string& name, double value) {
  values_[name] = value;
}

void StatsRegistry::set(const std::string& name, std::uint64_t value) {
  values_[name] = static_cast<double>(value);
}

bool StatsRegistry::contains(const std::string& name) const {
  return values_.count(name) != 0;
}

double StatsRegistry::get(const std::string& name) const {
  auto it = values_.find(name);
  config_check(it != values_.end(), "StatsRegistry: unknown stat " + name);
  return it->second;
}

}  // namespace fgqos::sim

/// \file stats.hpp
/// \brief Named counters and per-window time series for components.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace fgqos::sim {

/// A monotonically increasing named counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Windowed bandwidth sampler: accumulate bytes, close windows at fixed
/// intervals, and keep the per-window byte counts for later inspection
/// (used to measure regulation overshoot per window).
class WindowedBytes {
 public:
  /// \param window_ps window length; must be > 0
  explicit WindowedBytes(TimePs window_ps);

  /// Accounts \p bytes transferred at time \p now; closes any windows that
  /// ended at or before \p now first.
  void add(TimePs now, std::uint64_t bytes);

  /// Closes all windows ending at or before \p now (call once at the end
  /// of a run so trailing samples are flushed).
  void flush(TimePs now);

  [[nodiscard]] TimePs window_ps() const { return window_ps_; }
  [[nodiscard]] const std::vector<std::uint64_t>& samples() const {
    return samples_;
  }
  /// Total bytes recorded (flushed + current open window).
  [[nodiscard]] std::uint64_t total_bytes() const { return total_; }
  /// Largest closed-window byte count (0 if none closed yet).
  [[nodiscard]] std::uint64_t max_window_bytes() const;

 private:
  void close_until(TimePs now);

  TimePs window_ps_;
  TimePs window_end_;
  std::uint64_t current_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> samples_;
};

/// Registry mapping dotted stat names ("dram.row_hit") to values, used to
/// dump a whole SoC's statistics in one call.
class StatsRegistry {
 public:
  /// Sets (or overwrites) a scalar stat.
  void set(const std::string& name, double value);
  void set(const std::string& name, std::uint64_t value);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Returns the value; throws ConfigError when absent.
  [[nodiscard]] double get(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, double>& all() const {
    return values_;
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace fgqos::sim

/// \file timeseries.hpp
/// \brief Windowed time-series recorder: per-window samples of selected
///        platform metrics in bounded ring buffers.
///
/// The third observability pillar (after the metrics registry and the
/// Chrome trace): end-of-run snapshots show *where a run ended up*, traces
/// show *everything*, and the recorder shows *how the control loop moved*
/// — per-window bandwidth, token credit, throttle time, iteration
/// progress — cheap enough to keep on for long runs and structured enough
/// to diff across runs.
///
/// Sampling is pull-based: components are never touched on their hot
/// paths. At every window rollover (a recurring simulator event) the
/// recorder invokes one probe per registered series and stores the value
/// in a bounded ring (oldest windows evicted first, eviction
/// counted). Each series also feeds a sim::Histogram summary covering
/// every window of the run, evicted or not, so percentile summaries stay
/// exact even when the ring wrapped.
///
/// Series are admitted through a comma-separated glob filter
/// (`qos.*,dram.*`; empty = everything). A filter that admits no series
/// makes the recorder a true no-op: start() schedules nothing and exports
/// write only headers.
///
/// Determinism: rollovers are simulation events, probes are pure reads of
/// simulation state, and export order is registration order — so exports
/// are byte-identical across `--jobs` fan-out (per sweep point) and across
/// repeated runs.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/histogram.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fgqos::telemetry {

struct RunManifest;

/// Recorder configuration.
struct TimeSeriesConfig {
  /// Sampling window (the monitoring granularity of the time series).
  sim::TimePs window_ps = 100 * sim::kPsPerUs;
  /// Comma-separated series-name globs ("qos.*,dram.*"); empty admits
  /// every registered series.
  std::string filter;
  /// Ring capacity in windows: at most capacity * series doubles, grown
  /// one window at a time until the ring is full.
  std::size_t capacity = 4096;
};

/// The recorder.
class TimeSeriesRecorder {
 public:
  /// How a probe's value turns into the per-window sample.
  enum class Kind : std::uint8_t {
    kGauge,  ///< sample the probe's value as-is at the window end
    kDelta,  ///< per-window difference of a monotonically growing probe
  };

  /// Reads the current value of the underlying quantity at sample time.
  using ProbeFn = std::function<double(sim::TimePs)>;

  TimeSeriesRecorder(sim::Simulator& sim, TimeSeriesConfig cfg);

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  [[nodiscard]] const TimeSeriesConfig& config() const { return cfg_; }

  /// Registers series \p name when it passes the filter; returns whether
  /// it was admitted. Call before start(); registration order is export
  /// order.
  bool add_series(const std::string& name, Kind kind, ProbeFn probe);

  /// True when \p name would pass the configured filter.
  [[nodiscard]] bool admits(const std::string& name) const;

  /// Schedules the window rollovers. No-op when no series was admitted
  /// (the empty-selection recorder costs nothing at runtime).
  void start();

  /// Closes the final (possibly partial) window at \p now — horizons that
  /// do not divide the window still account their tail. Idempotent for a
  /// given \p now; call before exporting.
  void finish(sim::TimePs now);

  [[nodiscard]] std::size_t series_count() const { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& series_names() const {
    return names_;
  }
  /// Windows sampled so far (including ones evicted from the ring).
  [[nodiscard]] std::uint64_t windows_sampled() const { return sampled_; }
  /// Windows evicted because the ring was full.
  [[nodiscard]] std::uint64_t windows_dropped() const { return dropped_; }
  /// Windows currently held in the ring.
  [[nodiscard]] std::size_t windows_held() const { return held_; }

  /// One retained window of one series.
  struct Sample {
    sim::TimePs start = 0;
    sim::TimePs end = 0;
    double value = 0.0;
  };
  /// Retained samples of series \p index, oldest first.
  [[nodiscard]] std::vector<Sample> samples(std::size_t index) const;

  /// Whole-run summary of series \p index (negative sample values clamp
  /// to 0 before recording; the histogram takes uint64).
  [[nodiscard]] const sim::Histogram& summary(std::size_t index) const {
    return summaries_.at(index);
  }

  /// Long-format CSV:
  ///   series,window,start_ps,end_ps,value
  /// one row per (retained window, series), window-major then
  /// registration order. \p row_prefix is prepended verbatim to every row
  /// (sweep merges add a leading point column) and \p header_prefix to the
  /// header line when \p header is set.
  void write_csv(std::ostream& os, bool header = true,
                 const std::string& row_prefix = "",
                 const std::string& header_prefix = "") const;
  /// write_csv to \p path; \p manifest (when non-null) is embedded as a
  /// leading '#' comment line. Throws ConfigError on I/O failure.
  void save_csv(const std::string& path,
                const RunManifest* manifest = nullptr) const;

  /// One JSON object: manifest (when given), window_ps, windows sampled/
  /// dropped, and per-series kind, retained samples and histogram summary
  /// (count/min/max/mean/p50/p99/p999).
  void write_json(std::ostream& os, const RunManifest* manifest) const;
  void save_json(const std::string& path,
                 const RunManifest* manifest = nullptr) const;

 private:
  void on_rollover(std::uint64_t epoch);
  /// Samples every series for the window [window_start_, now).
  void capture(sim::TimePs now);
  [[nodiscard]] std::size_t ring_slot(std::size_t logical) const {
    return (head_ + logical) % cfg_.capacity;
  }

  sim::Simulator& sim_;
  TimeSeriesConfig cfg_;
  std::vector<std::string> names_;
  std::vector<Kind> kinds_;
  std::vector<ProbeFn> probes_;
  std::vector<double> prev_;  ///< previous cumulative value (kDelta)
  std::vector<sim::Histogram> summaries_;
  /// Ring storage: boundaries per window plus a flat value matrix
  /// (held rows x series columns), grown by capture() up to capacity
  /// rows.
  std::vector<sim::TimePs> starts_;
  std::vector<sim::TimePs> ends_;
  std::vector<double> values_;
  std::size_t head_ = 0;  ///< ring index of the oldest retained window
  std::size_t held_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t dropped_ = 0;
  sim::TimePs window_start_ = 0;
  std::uint64_t epoch_ = 0;
  sim::EventQueue::RecurringId rollover_event_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace fgqos::telemetry

/// \file metrics.hpp
/// \brief Typed metrics registry with hierarchical dotted names.
///
/// The registry is the one place every component's numbers end up in:
/// monotonic Counters, settable Gauges and HDR Histograms, addressed by
/// hierarchical names such as "dram.ch0.row_hits" or
/// "port.cpu.hop.dram_service_ps". Handles returned by counter()/gauge()/
/// histogram() are stable for the registry's lifetime, so hot paths update
/// a plain field — no lookup, no branch, no sink indirection. Exporting
/// (JSON or CSV snapshot) walks the registry once at the end of a run.
///
/// This subsumes the ad-hoc sim::StatsRegistry scalar dump: Soc fills a
/// MetricsRegistry and the legacy StatsRegistry view is derived from it.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "sim/histogram.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace fgqos::telemetry {

struct RunManifest;

/// Counters reuse the simulator's monotonically increasing counter.
using Counter = sim::Counter;

/// Last-value gauge handle.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Histograms reuse the simulator's HDR-style log-linear implementation.
using Histogram = sim::Histogram;

/// The registry. Metric names are registered on first use; registering the
/// same name with a different type throws ConfigError (name collision).
class MetricsRegistry {
 public:
  /// Returns the counter named \p name, creating it on first use.
  Counter& counter(const std::string& name);
  /// Returns the gauge named \p name, creating it on first use.
  Gauge& gauge(const std::string& name);
  /// Returns the histogram named \p name, creating it on first use.
  Histogram& histogram(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return metrics_.size(); }

  /// Scalar read of a counter or gauge; throws ConfigError when absent or
  /// when the metric is a histogram.
  [[nodiscard]] double scalar(const std::string& name) const;

  /// Discards every metric.
  void clear() { metrics_.clear(); }

  /// Removes every metric whose name starts with \p prefix; returns the
  /// number removed. Invalidates handles to the removed metrics — use
  /// only between a collection pass and an export, e.g. to drop the
  /// host-dependent `sim.wall*` numbers from snapshots that must be
  /// bit-identical across runs.
  std::size_t erase_prefix(const std::string& prefix);

  /// Writes the full snapshot as one JSON object:
  ///   {"time_ps": ..., "metrics": {"name": {"type": ..., ...}, ...}}
  /// Histograms export count/min/max/mean/stddev and the standard
  /// percentiles (p50/p90/p99/p999). When \p manifest is non-null the
  /// object gains a leading "manifest" member carrying run provenance
  /// (fgqos_report refuses to compare snapshots whose manifests do not
  /// line up).
  void write_json(std::ostream& os, sim::TimePs now,
                  const RunManifest* manifest = nullptr) const;
  /// write_json to \p path; throws ConfigError when the file cannot be
  /// written.
  void save_json(const std::string& path, sim::TimePs now,
                 const RunManifest* manifest = nullptr) const;

  /// Writes a flat CSV snapshot (name,type,count,value,p50,p90,p99,p999,max).
  /// When \p manifest is non-null it is embedded as a leading
  /// '# fgqos-manifest ...' comment line before the header.
  void write_csv(std::ostream& os, const RunManifest* manifest = nullptr) const;
  void save_csv(const std::string& path,
                const RunManifest* manifest = nullptr) const;

  /// Calls \p fn(name, metric kind string, scalar-or-count) for each metric
  /// in name order — used by the legacy StatsRegistry adapter.
  template <typename Fn>
  void for_each_scalar(Fn&& fn) const {
    for (const auto& [name, m] : metrics_) {
      if (m.kind == Kind::kCounter) {
        fn(name, static_cast<double>(m.counter.value()));
      } else if (m.kind == Kind::kGauge) {
        fn(name, m.gauge.value());
      }
    }
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Metric& fetch(const std::string& name, Kind kind);

  /// std::map: node-based, so Metric addresses (and thus handles) are
  /// stable across later registrations.
  std::map<std::string, Metric> metrics_;
};

}  // namespace fgqos::telemetry

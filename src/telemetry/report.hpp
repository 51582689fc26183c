/// \file report.hpp
/// \brief Run-comparison and regression analysis over exported artifacts.
///
/// The library behind the `fgqos_report` tool: it parses the files a run
/// writes (metrics JSON, blame CSV, decision-journal JSONL, time-series
/// JSON, BENCH_micro.json) back into memory, compares two runs per tenant
/// (p50/p99/p999 latency, bandwidth), diffs blame matrices, summarises
/// the decision timelines, and renders pass/fail verdicts against
/// configurable regression thresholds. Manifests embedded in the
/// artifacts gate the comparison: runs whose export schema or producing
/// tool differ are refused unless forced.
///
/// Everything here works on *files*, not on live platform objects, so the
/// analysis can run on another machine, in CI, long after the simulation
/// finished.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/manifest.hpp"

namespace fgqos::telemetry {

/// One metric parsed back from a metrics JSON export.
struct MetricSample {
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };
  Type type = Type::kCounter;
  double value = 0.0;  ///< counter/gauge value (histograms use the fields below)
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  /// True when the histogram export actually carried its quantile keys.
  /// Empty histograms (and truncated or foreign exports) omit them; the
  /// zero-initialised fields above are then placeholders, not
  /// measurements, and must render as "n/a"/null rather than 0.
  bool has_quantiles = false;
};

/// Whole-run summary of one time series (parsed from the recorder's JSON).
struct SeriesSummary {
  std::string kind;  ///< "gauge" or "delta"
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// One run's artifacts, parsed back into memory. Load whichever files the
/// run produced; every loader is optional and independent.
struct RunData {
  std::string label;  ///< "A" / "B" in reports
  RunManifest manifest;
  bool has_manifest = false;

  sim::TimePs time_ps = 0;  ///< simulated horizon from the metrics snapshot
  std::map<std::string, MetricSample> metrics;

  /// Whole-run blame totals (scope=total rows), keyed
  /// "victim|aggressor|cause" -> stall_ps. Sweep-merged files with a
  /// leading point column are summed across points.
  std::map<std::string, double> blame_stall_ps;

  std::vector<JournalEntry> journal;
  std::uint64_t journal_dropped = 0;
  bool has_journal = false;

  std::map<std::string, SeriesSummary> timeseries;
  sim::TimePs timeseries_window_ps = 0;

  /// Loaders; each throws ConfigError on unreadable or malformed input.
  /// A manifest found in any artifact is adopted (the first one wins;
  /// later conflicting manifests throw — mixed-run artifact sets are
  /// exactly the mistake the manifest exists to catch).
  void load_metrics_json(const std::string& path);
  void load_blame_csv(const std::string& path);
  void load_journal_jsonl(const std::string& path);
  void load_timeseries_json(const std::string& path);

  /// Tenant names with any per-port metric ("port.<tenant>.*"), sorted.
  [[nodiscard]] std::vector<std::string> tenants() const;

 private:
  void adopt_manifest(const RunManifest& m);
};

/// Regression thresholds for compare_runs().
struct ReportThresholds {
  /// Max tolerated p99/p999 latency growth, percent (B worse than A).
  double max_p99_regress_pct = 10.0;
  /// Max tolerated per-tenant bandwidth drop, percent.
  double max_bw_drop_pct = 10.0;
};

/// One compared quantity of one tenant.
struct TenantDelta {
  std::string tenant;
  std::string metric;  ///< "p50_ps", "p99_ps", "p999_ps", "bandwidth_bps"
  double a = 0.0;
  double b = 0.0;
  double delta_pct = 0.0;  ///< (b - a) / a * 100; 0 when a == 0
  bool regression = false;
  /// False when the runs did not capture this quantity (e.g. p999 for a
  /// tenant with only the read_p99_ps gauge, no hop histogram): the row
  /// renders as "n/a" (JSON null) and never participates in PASS/FAIL
  /// gating — an absent measurement must not masquerade as 0.
  bool available = true;
};

/// One blame-matrix cell that moved between the runs.
struct BlameDelta {
  std::string victim;
  std::string aggressor;
  std::string cause;
  double a_stall_ps = 0.0;
  double b_stall_ps = 0.0;
};

/// Decision-timeline digest of one run's journal.
struct JournalSummary {
  std::uint64_t entries = 0;
  std::uint64_t dropped = 0;
  std::map<std::string, std::uint64_t> action_counts;
  /// Noteworthy entries (watchdog degrade/re-arm, SLA trips, fault
  /// activations), pre-rendered one per line for the text report.
  std::vector<std::string> highlights;
};

/// The comparison result.
struct RunReport {
  RunData const* a = nullptr;  ///< borrowed; must outlive the report
  RunData const* b = nullptr;  ///< null for a single-run summary
  ReportThresholds thresholds;
  bool comparable = true;      ///< manifests agreed (or were absent/forced)
  std::string manifest_note;   ///< why comparable is false / was forced
  std::vector<TenantDelta> tenant_deltas;
  std::vector<BlameDelta> blame_deltas;  ///< sorted by |b - a| descending
  JournalSummary journal_a;
  JournalSummary journal_b;
  std::vector<std::string> regressions;  ///< human-readable verdicts
  [[nodiscard]] bool pass() const { return regressions.empty(); }

  void write_text(std::ostream& os) const;
  void write_json(std::ostream& os) const;
};

/// Digests \p r's journal (no-op summary when the run has none).
[[nodiscard]] JournalSummary summarize_journal(const RunData& r);

/// Compares run \p b against baseline \p a. Throws ConfigError when both
/// runs carry manifests that are not comparable_with() each other, unless
/// \p force — then the mismatch is recorded in manifest_note instead.
[[nodiscard]] RunReport compare_runs(const RunData& a, const RunData& b,
                                     const ReportThresholds& thresholds,
                                     bool force = false);

/// Single-run digest: tenant metrics, journal summary, time-series
/// overview of \p a alone (tenant_deltas carry a == b).
[[nodiscard]] RunReport summarize_run(const RunData& a);

/// Kernel micro-benchmark comparison (BENCH_micro.json schema).
struct BenchComparison {
  double base_events_per_sec = 0.0;
  double new_events_per_sec = 0.0;
  double base_ns_per_event = 0.0;
  double new_ns_per_event = 0.0;
  double drop_pct = 0.0;  ///< throughput loss, percent (negative = faster)
  double max_drop_pct = 10.0;
  [[nodiscard]] bool pass() const { return drop_pct <= max_drop_pct; }

  void write_text(std::ostream& os) const;
  void write_json(std::ostream& os) const;
};

/// Parses two BENCH_micro.json documents and compares events_per_sec.
/// Throws ConfigError on malformed input, a missing events_per_sec, or
/// (when both documents carry one) a schema_version mismatch.
[[nodiscard]] BenchComparison compare_bench(const std::string& baseline_json,
                                            const std::string& fresh_json,
                                            double max_drop_pct = 10.0);

/// One host-profile artifact parsed back from disk: the profile.json a
/// profiled run writes (`{"manifest":...,"profile":{...}}`; the manifest
/// is optional).
struct ProfileData {
  RunManifest manifest;
  bool has_manifest = false;
  int tag_table_version = 0;
  std::uint64_t total_cycles = 0;
  double coverage = 0.0;
  /// tag name -> {count, cycles}, sorted by name (std::map).
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tags;

  /// Cycle share of \p tag (0 when the profile is empty).
  [[nodiscard]] double share(const std::string& tag) const;

  /// Throws ConfigError unless \p text is a JSON object with a "profile"
  /// member carrying a tags array.
  [[nodiscard]] static ProfileData parse(const std::string& text);
  [[nodiscard]] static ProfileData load(const std::string& path);
};

/// Per-tag cycle-share movement between two profiles.
struct ProfileTagDelta {
  std::string name;
  double share_a = 0.0;
  double share_b = 0.0;
  [[nodiscard]] double delta_pp() const { return (share_b - share_a) * 100.0; }
};

/// Host-profile comparison: flags tags whose cycle share grew by more
/// than max_share_regress_pp percentage points.
struct ProfileComparison {
  std::vector<ProfileTagDelta> deltas;      ///< sorted by |delta| descending
  std::vector<std::string> regressions;     ///< human-readable verdicts
  std::string manifest_note;                ///< set when forced past a mismatch
  double max_share_regress_pp = 2.0;
  double coverage_a = 0.0;
  double coverage_b = 0.0;
  [[nodiscard]] bool pass() const { return regressions.empty(); }

  void write_text(std::ostream& os) const;
  void write_json(std::ostream& os) const;
};

/// Compares profile \p b against baseline \p a. Throws ConfigError when
/// the two profiles carry different tag-table versions (the tag sets are
/// not comparable), unless \p force — then the mismatch is recorded in
/// manifest_note instead.
[[nodiscard]] ProfileComparison compare_profiles(
    const ProfileData& a, const ProfileData& b,
    double max_share_regress_pp = 2.0, bool force = false);

}  // namespace fgqos::telemetry

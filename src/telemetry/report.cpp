#include "telemetry/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "util/config_error.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace fgqos::telemetry {

namespace {

/// Shortest representation that round-trips the exact double (the same
/// contract every exporter in the codebase uses).
void write_number(std::ostream& os, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

double number_or(const util::JsonValue& obj, const std::string& key,
                 double def) {
  if (!obj.contains(key)) {
    return def;
  }
  return obj.at(key).as_number();
}

std::string string_or(const util::JsonValue& obj, const std::string& key) {
  if (!obj.contains(key) || !obj.at(key).is_string()) {
    return "";
  }
  return obj.at(key).as_string();
}

double pct_delta(double a, double b) {
  if (a == 0.0) {
    return 0.0;
  }
  return (b - a) / a * 100.0;
}

std::string format_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  return buf;
}

std::string format_value(double v) {
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", v);
  }
  return buf;
}

std::string manifest_line(const RunData& r) {
  if (!r.has_manifest) {
    return "(no manifest)";
  }
  const RunManifest& m = r.manifest;
  std::string s = "tool=" + m.tool + " schema_version=" +
                  std::to_string(m.schema_version) + " seed=" +
                  std::to_string(m.seed) + " build=" + m.build;
  if (!m.fault_spec_hash.empty()) {
    s += " fault_spec_hash=" + m.fault_spec_hash;
  }
  if (!m.scenario.empty()) {
    s += " scenario=\"" + m.scenario + "\"";
  }
  return s;
}

/// Compares one quantity of one tenant and appends the row (and any
/// verdict) to the report. \p lower_is_better selects which direction of
/// travel counts against \p threshold_pct.
void push_delta(RunReport& rep, const std::string& tenant,
                const std::string& metric, double a, double b,
                double threshold_pct, bool lower_is_better) {
  TenantDelta d;
  d.tenant = tenant;
  d.metric = metric;
  d.a = a;
  d.b = b;
  d.delta_pct = pct_delta(a, b);
  if (threshold_pct > 0.0) {
    d.regression = lower_is_better ? d.delta_pct > threshold_pct
                                   : d.delta_pct < -threshold_pct;
  }
  if (d.regression) {
    rep.regressions.push_back(
        tenant + " " + metric + " " + format_pct(d.delta_pct) + " (" +
        format_value(a) + " -> " + format_value(b) + ") exceeds " +
        format_value(threshold_pct) + "% threshold");
  }
  rep.tenant_deltas.push_back(std::move(d));
}

const MetricSample* find_metric(const RunData& r, const std::string& name) {
  const auto it = r.metrics.find(name);
  return it == r.metrics.end() ? nullptr : &it->second;
}

void summarize_entry(const JournalEntry& e, std::vector<std::string>& out) {
  std::string line = std::to_string(e.at / sim::kPsPerUs) + "us " +
                     e.component + " " + e.action + " " +
                     format_value(e.old_value) + "->" +
                     format_value(e.new_value);
  if (!e.cause.empty()) {
    line += " (" + e.cause + ")";
  }
  if (!e.detail.empty()) {
    line += " " + e.detail;
  }
  out.push_back(std::move(line));
}

}  // namespace

void RunData::adopt_manifest(const RunManifest& m) {
  if (!has_manifest) {
    manifest = m;
    has_manifest = true;
    return;
  }
  config_check(
      manifest.comparable_with(m) && manifest.seed == m.seed &&
          manifest.scenario == m.scenario &&
          manifest.fault_spec_hash == m.fault_spec_hash,
      "report: run " + label +
          " mixes artifacts from different runs (manifests disagree: '" +
          manifest.to_json_object() + "' vs '" + m.to_json_object() + "')");
}

void RunData::load_metrics_json(const std::string& path) {
  const util::JsonValue doc = util::JsonValue::parse(
      util::read_file(path, "report: cannot read '" + path + "'"));
  config_check(doc.is_object(), "report: '" + path + "' is not a JSON object");
  if (doc.contains("manifest")) {
    adopt_manifest(RunManifest::from_json(doc.at("manifest")));
  }
  if (doc.contains("time_ps")) {
    time_ps = doc.at("time_ps").is_uint64()
                  ? doc.at("time_ps").as_uint64()
                  : static_cast<sim::TimePs>(doc.at("time_ps").as_number());
  }
  config_check(doc.contains("metrics"),
               "report: '" + path + "' has no \"metrics\" object");
  for (const auto& [name, m] : doc.at("metrics").as_object()) {
    MetricSample s;
    const std::string type = string_or(m, "type");
    if (type == "counter") {
      s.type = MetricSample::Type::kCounter;
      s.value = number_or(m, "value", 0.0);
    } else if (type == "gauge") {
      s.type = MetricSample::Type::kGauge;
      s.value = number_or(m, "value", 0.0);
    } else if (type == "histogram") {
      s.type = MetricSample::Type::kHistogram;
      s.count = static_cast<std::uint64_t>(number_or(m, "count", 0.0));
      s.min = number_or(m, "min", 0.0);
      s.max = number_or(m, "max", 0.0);
      s.mean = number_or(m, "mean", 0.0);
      s.p50 = number_or(m, "p50", 0.0);
      s.p90 = number_or(m, "p90", 0.0);
      s.p99 = number_or(m, "p99", 0.0);
      s.p999 = number_or(m, "p999", 0.0);
      s.has_quantiles =
          m.contains("p50") && m.contains("p99") && m.contains("p999");
    } else {
      throw ConfigError("report: metric '" + name + "' in '" + path +
                        "' has unknown type '" + type + "'");
    }
    metrics[name] = s;
  }
}

void RunData::load_blame_csv(const std::string& path) {
  std::istringstream is(
      util::read_file(path, "report: cannot read '" + path + "'"));
  std::string line;
  bool saw_header = false;
  bool has_point_column = false;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      RunManifest m;
      if (RunManifest::from_csv_comment(line, m)) {
        adopt_manifest(m);
      }
      continue;
    }
    const std::vector<std::string> f = util::split(line, ',');
    if (!saw_header) {
      // Single-run files start "scope,..."; sweep merges "point,scope,...".
      saw_header = true;
      config_check(!f.empty() && (f[0] == "scope" || f[0] == "point"),
                   "report: '" + path + "' is not a blame CSV");
      has_point_column = f[0] == "point";
      continue;
    }
    const std::size_t off = has_point_column ? 1 : 0;
    if (f.size() < off + 8 || f[off] != "total") {
      continue;  // per-window rows: the totals are what we diff
    }
    const std::string key = f[off + 3] + "|" + f[off + 4] + "|" + f[off + 5];
    blame_stall_ps[key] += std::stod(f[off + 6]);
  }
  config_check(saw_header, "report: '" + path + "' is empty");
}

void RunData::load_journal_jsonl(const std::string& path) {
  std::istringstream is(
      util::read_file(path, "report: cannot read '" + path + "'"));
  std::string line;
  bool saw_any = false;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    saw_any = true;
    const util::JsonValue v = util::JsonValue::parse(line);
    config_check(v.is_object(),
                 "report: '" + path + "' line is not a JSON object");
    if (v.contains("manifest")) {
      adopt_manifest(RunManifest::from_json(v.at("manifest")));
      continue;
    }
    if (v.contains("dropped") && !v.contains("seq")) {
      journal_dropped =
          static_cast<std::uint64_t>(v.at("dropped").as_number());
      continue;
    }
    JournalEntry e;
    e.seq = static_cast<std::uint64_t>(number_or(v, "seq", 0.0));
    e.at = v.contains("at_ps")
               ? (v.at("at_ps").is_uint64()
                      ? v.at("at_ps").as_uint64()
                      : static_cast<sim::TimePs>(v.at("at_ps").as_number()))
               : 0;
    e.component = string_or(v, "component");
    e.action = string_or(v, "action");
    e.old_value = number_or(v, "old", 0.0);
    e.new_value = number_or(v, "new", 0.0);
    e.cause = string_or(v, "cause");
    e.detail = string_or(v, "detail");
    journal.push_back(std::move(e));
  }
  config_check(saw_any, "report: journal '" + path + "' is empty");
  has_journal = true;
}

void RunData::load_timeseries_json(const std::string& path) {
  const util::JsonValue doc = util::JsonValue::parse(
      util::read_file(path, "report: cannot read '" + path + "'"));
  config_check(doc.is_object(), "report: '" + path + "' is not a JSON object");
  if (doc.contains("manifest")) {
    adopt_manifest(RunManifest::from_json(doc.at("manifest")));
  }
  timeseries_window_ps =
      static_cast<sim::TimePs>(number_or(doc, "window_ps", 0.0));
  config_check(doc.contains("series"),
               "report: '" + path + "' has no \"series\" object");
  for (const auto& [name, s] : doc.at("series").as_object()) {
    SeriesSummary sum;
    sum.kind = string_or(s, "kind");
    if (s.contains("summary")) {
      const util::JsonValue& h = s.at("summary");
      sum.count = static_cast<std::uint64_t>(number_or(h, "count", 0.0));
      sum.min = number_or(h, "min", 0.0);
      sum.max = number_or(h, "max", 0.0);
      sum.mean = number_or(h, "mean", 0.0);
      sum.p50 = number_or(h, "p50", 0.0);
      sum.p99 = number_or(h, "p99", 0.0);
      sum.p999 = number_or(h, "p999", 0.0);
    }
    timeseries[name] = sum;
  }
}

std::vector<std::string> RunData::tenants() const {
  std::vector<std::string> out;
  for (const auto& [name, m] : metrics) {
    if (name.rfind("port.", 0) != 0) {
      continue;
    }
    const std::size_t dot = name.find('.', 5);
    if (dot == std::string::npos) {
      continue;
    }
    const std::string tenant = name.substr(5, dot - 5);
    if (out.empty() || out.back() != tenant) {
      out.push_back(tenant);
    }
  }
  return out;  // metrics map is sorted, so tenants come out sorted + unique
}

JournalSummary summarize_journal(const RunData& r) {
  JournalSummary s;
  if (!r.has_journal) {
    return s;
  }
  s.entries = static_cast<std::uint64_t>(r.journal.size());
  s.dropped = r.journal_dropped;
  for (const JournalEntry& e : r.journal) {
    ++s.action_counts[e.action];
    // The timeline highlights: mode changes and violations, not the
    // steady-state hum of budget writes and stall/release cycles.
    if (e.action == "degrade" || e.action == "rearm" ||
        e.action == "clamp_write" || e.action == "sla_trip" ||
        e.action == "sla_clear" || e.component == "fault") {
      summarize_entry(e, s.highlights);
    }
  }
  return s;
}

RunReport compare_runs(const RunData& a, const RunData& b,
                       const ReportThresholds& thresholds, bool force) {
  RunReport rep;
  rep.a = &a;
  rep.b = &b;
  rep.thresholds = thresholds;
  if (a.has_manifest && b.has_manifest &&
      !a.manifest.comparable_with(b.manifest)) {
    rep.comparable = false;
    rep.manifest_note = "runs are not comparable: A is {" + manifest_line(a) +
                        "}, B is {" + manifest_line(b) + "}";
    if (!force) {
      throw ConfigError("report: " + rep.manifest_note +
                        " (pass --force to compare anyway)");
    }
    rep.manifest_note += " — compared anyway (--force)";
  }

  // Per-tenant latency (per-hop end-to-end histogram when the run captured
  // lifecycle metrics, the always-on read p99 gauge otherwise) and
  // bandwidth. Tenants come from either run so a vanished port still shows.
  std::vector<std::string> tenants = a.tenants();
  for (const std::string& t : b.tenants()) {
    if (std::find(tenants.begin(), tenants.end(), t) == tenants.end()) {
      tenants.push_back(t);
    }
  }
  std::sort(tenants.begin(), tenants.end());
  for (const std::string& t : tenants) {
    const std::string hop = "port." + t + ".hop.total_ps";
    const MetricSample* ha = find_metric(a, hop);
    const MetricSample* hb = find_metric(b, hop);
    const bool hop_usable = ha != nullptr && hb != nullptr &&
                            ha->count > 0 && hb->count > 0 &&
                            ha->has_quantiles && hb->has_quantiles;
    if (hop_usable) {
      push_delta(rep, t, "p50_ps", ha->p50, hb->p50, 0.0, true);
      push_delta(rep, t, "p99_ps", ha->p99, hb->p99,
                 thresholds.max_p99_regress_pct, true);
      push_delta(rep, t, "p999_ps", ha->p999, hb->p999,
                 thresholds.max_p99_regress_pct, true);
    } else {
      const MetricSample* ga = find_metric(a, "port." + t + ".read_p99_ps");
      const MetricSample* gb = find_metric(b, "port." + t + ".read_p99_ps");
      if (ga != nullptr && gb != nullptr) {
        push_delta(rep, t, "p99_ps", ga->value, gb->value,
                   thresholds.max_p99_regress_pct, true);
        // The gauge carries no p999; emit the row as explicitly
        // unavailable rather than a fake 0, and keep it out of gating.
        TenantDelta na;
        na.tenant = t;
        na.metric = "p999_ps";
        na.available = false;
        rep.tenant_deltas.push_back(std::move(na));
      } else if (ha != nullptr && hb != nullptr) {
        // Hop histograms exist but carry no usable quantiles (empty, or
        // an export that dropped the keys): explicit n/a rows, never the
        // zero-initialised placeholders masquerading as measurements.
        for (const char* metric : {"p50_ps", "p99_ps", "p999_ps"}) {
          TenantDelta na;
          na.tenant = t;
          na.metric = metric;
          na.available = false;
          rep.tenant_deltas.push_back(std::move(na));
        }
      }
    }
    const MetricSample* ba = find_metric(a, "port." + t + ".bytes");
    const MetricSample* bb = find_metric(b, "port." + t + ".bytes");
    if (ba != nullptr && bb != nullptr && a.time_ps > 0 && b.time_ps > 0) {
      const double bps_a =
          ba->value * 1e12 / static_cast<double>(a.time_ps);
      const double bps_b =
          bb->value * 1e12 / static_cast<double>(b.time_ps);
      push_delta(rep, t, "bandwidth_bps", bps_a, bps_b,
                 thresholds.max_bw_drop_pct, false);
    }
  }

  // Blame-matrix movement over the union of cells.
  std::vector<std::string> keys;
  for (const auto& [k, v] : a.blame_stall_ps) {
    keys.push_back(k);
  }
  for (const auto& [k, v] : b.blame_stall_ps) {
    if (a.blame_stall_ps.find(k) == a.blame_stall_ps.end()) {
      keys.push_back(k);
    }
  }
  for (const std::string& k : keys) {
    const auto ia = a.blame_stall_ps.find(k);
    const auto ib = b.blame_stall_ps.find(k);
    BlameDelta d;
    const std::vector<std::string> parts = util::split(k, '|');
    d.victim = parts.at(0);
    d.aggressor = parts.at(1);
    d.cause = parts.at(2);
    d.a_stall_ps = ia == a.blame_stall_ps.end() ? 0.0 : ia->second;
    d.b_stall_ps = ib == b.blame_stall_ps.end() ? 0.0 : ib->second;
    if (d.a_stall_ps != d.b_stall_ps) {
      rep.blame_deltas.push_back(std::move(d));
    }
  }
  std::sort(rep.blame_deltas.begin(), rep.blame_deltas.end(),
            [](const BlameDelta& x, const BlameDelta& y) {
              return std::fabs(x.b_stall_ps - x.a_stall_ps) >
                     std::fabs(y.b_stall_ps - y.a_stall_ps);
            });

  rep.journal_a = summarize_journal(a);
  rep.journal_b = summarize_journal(b);
  return rep;
}

RunReport summarize_run(const RunData& a) {
  ReportThresholds off;
  off.max_p99_regress_pct = 0.0;
  off.max_bw_drop_pct = 0.0;
  RunReport rep = compare_runs(a, a, off, /*force=*/false);
  rep.b = nullptr;
  rep.blame_deltas.clear();  // a run never moves against itself
  return rep;
}

void RunReport::write_text(std::ostream& os) const {
  const bool comparing = b != nullptr;
  os << (comparing ? "fgqos run comparison\n" : "fgqos run summary\n");
  os << "  A: " << manifest_line(*a) << "\n";
  if (comparing) {
    os << "  B: " << manifest_line(*b) << "\n";
  }
  if (!manifest_note.empty()) {
    os << "  ! " << manifest_note << "\n";
  }

  if (!tenant_deltas.empty()) {
    os << "\ntenant metrics" << (comparing ? " (A -> B)" : "") << ":\n";
    for (const TenantDelta& d : tenant_deltas) {
      char line[160];
      if (!d.available) {
        if (comparing) {
          std::snprintf(line, sizeof line, "  %-10s %-14s %14s %14s  %8s",
                        d.tenant.c_str(), d.metric.c_str(), "n/a", "n/a",
                        "n/a");
        } else {
          std::snprintf(line, sizeof line, "  %-10s %-14s %14s",
                        d.tenant.c_str(), d.metric.c_str(), "n/a");
        }
      } else if (comparing) {
        std::snprintf(line, sizeof line, "  %-10s %-14s %14s %14s  %8s%s",
                      d.tenant.c_str(), d.metric.c_str(),
                      format_value(d.a).c_str(), format_value(d.b).c_str(),
                      format_pct(d.delta_pct).c_str(),
                      d.regression ? "  << REGRESSION" : "");
      } else {
        std::snprintf(line, sizeof line, "  %-10s %-14s %14s",
                      d.tenant.c_str(), d.metric.c_str(),
                      format_value(d.a).c_str());
      }
      os << line << "\n";
    }
  }

  if (!blame_deltas.empty()) {
    os << "\nblame-matrix movement (top " << std::min<std::size_t>(10,
        blame_deltas.size()) << " by |delta|, stall_ps):\n";
    std::size_t shown = 0;
    for (const BlameDelta& d : blame_deltas) {
      if (++shown > 10) {
        os << "  ... " << blame_deltas.size() - 10 << " more cell(s)\n";
        break;
      }
      os << "  " << d.victim << " <- " << d.aggressor << " [" << d.cause
         << "]: " << format_value(d.a_stall_ps) << " -> "
         << format_value(d.b_stall_ps) << " ("
         << format_pct(pct_delta(d.a_stall_ps, d.b_stall_ps)) << ")\n";
    }
  }

  const auto print_journal = [&os](const char* tag, const JournalSummary& j) {
    if (j.entries == 0 && j.dropped == 0) {
      return;
    }
    os << "  " << tag << ": " << j.entries << " entrie(s)";
    if (j.dropped > 0) {
      os << " (" << j.dropped << " dropped)";
    }
    os << ":";
    for (const auto& [action, n] : j.action_counts) {
      os << " " << action << "=" << n;
    }
    os << "\n";
    std::size_t shown = 0;
    for (const std::string& h : j.highlights) {
      if (++shown > 20) {
        os << "    ... " << j.highlights.size() - 20 << " more highlight(s)\n";
        break;
      }
      os << "    " << h << "\n";
    }
  };
  if (journal_a.entries > 0 || journal_b.entries > 0) {
    os << "\ndecision timeline:\n";
    print_journal("A", journal_a);
    if (comparing) {
      print_journal("B", journal_b);
    }
  }

  if (comparing) {
    os << "\nverdict: " << (pass() ? "PASS" : "FAIL") << "\n";
    for (const std::string& r : regressions) {
      os << "  - " << r << "\n";
    }
  }
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\"comparable\":" << (comparable ? "true" : "false");
  if (!manifest_note.empty()) {
    os << ",\"manifest_note\":\"" << util::json_escape(manifest_note) << "\"";
  }
  if (a->has_manifest) {
    os << ",\"manifest_a\":" << a->manifest.to_json_object();
  }
  if (b != nullptr && b->has_manifest) {
    os << ",\"manifest_b\":" << b->manifest.to_json_object();
  }
  os << ",\"thresholds\":{\"max_p99_regress_pct\":";
  write_number(os, thresholds.max_p99_regress_pct);
  os << ",\"max_bw_drop_pct\":";
  write_number(os, thresholds.max_bw_drop_pct);
  os << "},\"tenants\":[";
  bool first = true;
  for (const TenantDelta& d : tenant_deltas) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"tenant\":\"" << util::json_escape(d.tenant) << "\",\"metric\":\""
       << util::json_escape(d.metric) << "\",\"a\":";
    if (d.available) {
      write_number(os, d.a);
      os << ",\"b\":";
      write_number(os, d.b);
      os << ",\"delta_pct\":";
      write_number(os, d.delta_pct);
    } else {
      os << "null,\"b\":null,\"delta_pct\":null";
    }
    os << ",\"available\":" << (d.available ? "true" : "false")
       << ",\"regression\":" << (d.regression ? "true" : "false") << "}";
  }
  os << "],\"blame\":[";
  first = true;
  for (const BlameDelta& d : blame_deltas) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"victim\":\"" << util::json_escape(d.victim)
       << "\",\"aggressor\":\"" << util::json_escape(d.aggressor)
       << "\",\"cause\":\"" << util::json_escape(d.cause) << "\",\"a_stall_ps\":";
    write_number(os, d.a_stall_ps);
    os << ",\"b_stall_ps\":";
    write_number(os, d.b_stall_ps);
    os << "}";
  }
  const auto journal_json = [&os](const JournalSummary& j) {
    os << "{\"entries\":" << j.entries << ",\"dropped\":" << j.dropped
       << ",\"actions\":{";
    bool f = true;
    for (const auto& [action, n] : j.action_counts) {
      if (!f) {
        os << ",";
      }
      f = false;
      os << "\"" << util::json_escape(action) << "\":" << n;
    }
    os << "}}";
  };
  os << "],\"journal_a\":";
  journal_json(journal_a);
  if (b != nullptr) {
    os << ",\"journal_b\":";
    journal_json(journal_b);
  }
  os << ",\"regressions\":[";
  first = true;
  for (const std::string& r : regressions) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << util::json_escape(r) << "\"";
  }
  os << "],\"pass\":" << (pass() ? "true" : "false") << "}\n";
}

BenchComparison compare_bench(const std::string& baseline_json,
                              const std::string& fresh_json,
                              double max_drop_pct) {
  const util::JsonValue base = util::JsonValue::parse(baseline_json);
  const util::JsonValue fresh = util::JsonValue::parse(fresh_json);
  config_check(base.is_object() && fresh.is_object(),
               "report: bench records must be JSON objects");
  if (base.contains("schema_version") && fresh.contains("schema_version")) {
    config_check(base.at("schema_version").as_number() ==
                     fresh.at("schema_version").as_number(),
                 "report: bench schema_version mismatch");
  }
  config_check(
      base.contains("events_per_sec") && fresh.contains("events_per_sec"),
      "report: bench record has no events_per_sec");
  BenchComparison c;
  c.base_events_per_sec = base.at("events_per_sec").as_number();
  c.new_events_per_sec = fresh.at("events_per_sec").as_number();
  c.base_ns_per_event = number_or(base, "ns_per_event", 0.0);
  c.new_ns_per_event = number_or(fresh, "ns_per_event", 0.0);
  config_check(c.base_events_per_sec > 0.0,
               "report: baseline events_per_sec must be positive");
  c.drop_pct = (c.base_events_per_sec - c.new_events_per_sec) /
               c.base_events_per_sec * 100.0;
  c.max_drop_pct = max_drop_pct;
  return c;
}

void BenchComparison::write_text(std::ostream& os) const {
  char line[256];
  std::snprintf(line, sizeof line,
                "kernel throughput: baseline %.3e ev/s, now %.3e ev/s "
                "(%+.1f%%%s)\n",
                base_events_per_sec, new_events_per_sec, -drop_pct,
                new_ns_per_event > 0.0 ? "" : ", ns/event unavailable");
  os << line;
  if (new_ns_per_event > 0.0 && base_ns_per_event > 0.0) {
    std::snprintf(line, sizeof line,
                  "ns/event: baseline %.2f, now %.2f\n", base_ns_per_event,
                  new_ns_per_event);
    os << line;
  }
  std::snprintf(line, sizeof line, "verdict: %s (max tolerated drop %.1f%%)\n",
                pass() ? "PASS" : "FAIL", max_drop_pct);
  os << line;
}

void BenchComparison::write_json(std::ostream& os) const {
  os << "{\"base_events_per_sec\":";
  write_number(os, base_events_per_sec);
  os << ",\"new_events_per_sec\":";
  write_number(os, new_events_per_sec);
  os << ",\"drop_pct\":";
  write_number(os, drop_pct);
  os << ",\"max_drop_pct\":";
  write_number(os, max_drop_pct);
  os << ",\"pass\":" << (pass() ? "true" : "false") << "}\n";
}

// ---------------------------------------------------------------------------
// Host-profile comparison

double ProfileData::share(const std::string& tag) const {
  if (total_cycles == 0) {
    return 0.0;
  }
  const auto it = tags.find(tag);
  if (it == tags.end()) {
    return 0.0;
  }
  return static_cast<double>(it->second.second) /
         static_cast<double>(total_cycles);
}

ProfileData ProfileData::parse(const std::string& text) {
  ProfileData d;
  const util::JsonValue root = util::JsonValue::parse(text);
  config_check(root.is_object() && root.contains("profile"),
               "report: profile artifact must be an object with a "
               "\"profile\" member");
  if (root.contains("manifest")) {
    d.manifest = RunManifest::from_json(root.at("manifest"));
    d.has_manifest = true;
  }
  const util::JsonValue& prof = root.at("profile");
  config_check(prof.is_object() && prof.contains("tags"),
               "report: profile artifact has no tags array");
  d.tag_table_version =
      static_cast<int>(number_or(prof, "tag_table_version", 0.0));
  d.total_cycles =
      static_cast<std::uint64_t>(number_or(prof, "total_cycles", 0.0));
  d.coverage = number_or(prof, "coverage", 0.0);
  for (const util::JsonValue& t : prof.at("tags").as_array()) {
    config_check(t.is_object() && t.contains("name"),
                 "report: malformed profile tag entry");
    d.tags[t.at("name").as_string()] = {
        static_cast<std::uint64_t>(number_or(t, "count", 0.0)),
        static_cast<std::uint64_t>(number_or(t, "cycles", 0.0))};
  }
  return d;
}

ProfileData ProfileData::load(const std::string& path) {
  return parse(util::read_file(path, "report: cannot read '" + path + "'"));
}

ProfileComparison compare_profiles(const ProfileData& a, const ProfileData& b,
                                   double max_share_regress_pp, bool force) {
  ProfileComparison c;
  c.max_share_regress_pp = max_share_regress_pp;
  c.coverage_a = a.coverage;
  c.coverage_b = b.coverage;
  if (a.tag_table_version != 0 && b.tag_table_version != 0 &&
      a.tag_table_version != b.tag_table_version) {
    const std::string note =
        "profile tag-table version mismatch: baseline v" +
        std::to_string(a.tag_table_version) + " vs v" +
        std::to_string(b.tag_table_version);
    config_check(force, "report: " + note + " (use --force to compare anyway)");
    c.manifest_note = note;
  }
  // Union of tag names; both sides are name-sorted maps already.
  std::vector<std::string> names;
  for (const auto& [name, cc] : a.tags) {
    names.push_back(name);
  }
  for (const auto& [name, cc] : b.tags) {
    if (a.tags.find(name) == a.tags.end()) {
      names.push_back(name);
    }
  }
  for (const std::string& name : names) {
    ProfileTagDelta d;
    d.name = name;
    d.share_a = a.share(name);
    d.share_b = b.share(name);
    c.deltas.push_back(d);
    if (d.delta_pp() > max_share_regress_pp) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s: cycle share %.1f%% -> %.1f%% (+%.1fpp > %.1fpp)",
                    name.c_str(), d.share_a * 100.0, d.share_b * 100.0,
                    d.delta_pp(), max_share_regress_pp);
      c.regressions.emplace_back(buf);
    }
  }
  std::stable_sort(c.deltas.begin(), c.deltas.end(),
                   [](const ProfileTagDelta& x, const ProfileTagDelta& y) {
                     const double ax = std::abs(x.delta_pp());
                     const double ay = std::abs(y.delta_pp());
                     if (ax != ay) {
                       return ax > ay;
                     }
                     // Equal magnitude: regressions ahead of improvements.
                     return x.delta_pp() > y.delta_pp();
                   });
  return c;
}

void ProfileComparison::write_text(std::ostream& os) const {
  if (!manifest_note.empty()) {
    os << "note: " << manifest_note << "\n";
  }
  char line[192];
  std::snprintf(line, sizeof line, "coverage: baseline %.3f, now %.3f\n",
                coverage_a, coverage_b);
  os << line;
  os << "top cycle-share movements:\n";
  const std::size_t shown = std::min<std::size_t>(deltas.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    const ProfileTagDelta& d = deltas[i];
    std::snprintf(line, sizeof line, "  %-32s %6.1f%% -> %6.1f%% (%+.1fpp)\n",
                  d.name.c_str(), d.share_a * 100.0, d.share_b * 100.0,
                  d.delta_pp());
    os << line;
  }
  if (regressions.empty()) {
    std::snprintf(line, sizeof line,
                  "verdict: PASS (no tag grew more than %.1fpp)\n",
                  max_share_regress_pp);
    os << line;
  } else {
    os << "verdict: FAIL\n";
    for (const std::string& r : regressions) {
      os << "  regression: " << r << "\n";
    }
  }
}

void ProfileComparison::write_json(std::ostream& os) const {
  os << "{\"max_share_regress_pp\":";
  write_number(os, max_share_regress_pp);
  os << ",\"coverage_a\":";
  write_number(os, coverage_a);
  os << ",\"coverage_b\":";
  write_number(os, coverage_b);
  if (!manifest_note.empty()) {
    os << ",\"manifest_note\":\"" << util::json_escape(manifest_note) << "\"";
  }
  os << ",\"deltas\":[";
  bool first = true;
  for (const ProfileTagDelta& d : deltas) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"name\":\"" << util::json_escape(d.name) << "\",\"share_a\":";
    write_number(os, d.share_a);
    os << ",\"share_b\":";
    write_number(os, d.share_b);
    os << ",\"delta_pp\":";
    write_number(os, d.delta_pp());
    os << "}";
  }
  os << "],\"regressions\":[";
  first = true;
  for (const std::string& r : regressions) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << util::json_escape(r) << "\"";
  }
  os << "],\"pass\":" << (pass() ? "true" : "false") << "}\n";
}

}  // namespace fgqos::telemetry

#include "telemetry/timeseries.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <utility>

#include "telemetry/manifest.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace fgqos::telemetry {

namespace {

/// Shortest representation that round-trips the exact double (same
/// contract as the metrics registry: exports are determinism goldens).
void write_number(std::ostream& os, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

const char* kind_name(TimeSeriesRecorder::Kind k) {
  return k == TimeSeriesRecorder::Kind::kGauge ? "gauge" : "delta";
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(sim::Simulator& sim,
                                       TimeSeriesConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  config_check(cfg_.window_ps > 0,
               "TimeSeriesRecorder: window_ps must be positive");
  config_check(cfg_.capacity > 0,
               "TimeSeriesRecorder: capacity must be positive");
  rollover_event_ = sim_.make_recurring_event(
      [this](std::uint64_t epoch) { on_rollover(epoch); },
      sim_.profile_tag("telemetry.timeseries"));
}

bool TimeSeriesRecorder::admits(const std::string& name) const {
  return util::glob_match_any(cfg_.filter, name);
}

bool TimeSeriesRecorder::add_series(const std::string& name, Kind kind,
                                    ProbeFn probe) {
  config_check(!started_, "TimeSeriesRecorder: add_series after start");
  config_check(!name.empty(), "TimeSeriesRecorder: empty series name");
  config_check(static_cast<bool>(probe),
               "TimeSeriesRecorder: null probe for '" + name + "'");
  if (!admits(name)) {
    return false;
  }
  names_.push_back(name);
  kinds_.push_back(kind);
  probes_.push_back(std::move(probe));
  prev_.push_back(0.0);
  summaries_.emplace_back();
  return true;
}

void TimeSeriesRecorder::start() {
  config_check(!started_, "TimeSeriesRecorder: started twice");
  started_ = true;
  if (names_.empty()) {
    return;  // nothing selected: never touches the event queue
  }
  window_start_ = sim_.now();
  // Seed kDelta baselines so the first window reports growth since start,
  // not growth since time zero.
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (kinds_[i] == Kind::kDelta) {
      prev_[i] = probes_[i](window_start_);
    }
  }
  sim_.schedule_recurring(rollover_event_, window_start_ + cfg_.window_ps,
                          epoch_);
}

void TimeSeriesRecorder::on_rollover(std::uint64_t epoch) {
  if (epoch != epoch_ || finished_) {
    return;  // stale arm from before a finish()
  }
  capture(sim_.now());
  sim_.schedule_recurring(rollover_event_, sim_.now() + cfg_.window_ps,
                          epoch_);
}

void TimeSeriesRecorder::finish(sim::TimePs now) {
  if (!started_ || finished_ || names_.empty()) {
    finished_ = true;
    return;
  }
  finished_ = true;
  ++epoch_;  // invalidate the in-flight rollover arm
  if (now > window_start_) {
    capture(now);  // tail window of a horizon that does not divide window_ps
  }
}

void TimeSeriesRecorder::capture(sim::TimePs now) {
  const std::size_t n = names_.size();
  std::size_t slot;
  if (held_ < cfg_.capacity) {
    // Until the ring is full head_ is 0 and slots fill in order, so the
    // storage grows by one row here instead of being allocated up front.
    slot = held_;
    ++held_;
    starts_.push_back(0);
    ends_.push_back(0);
    values_.resize(values_.size() + n);
  } else {
    slot = head_;
    head_ = (head_ + 1) % cfg_.capacity;
    ++dropped_;
  }
  starts_[slot] = window_start_;
  ends_[slot] = now;
  for (std::size_t i = 0; i < n; ++i) {
    const double cur = probes_[i](now);
    double v = cur;
    if (kinds_[i] == Kind::kDelta) {
      v = cur - prev_[i];
      prev_[i] = cur;
    }
    values_[slot * n + i] = v;
    summaries_[i].record(
        static_cast<std::uint64_t>(std::llround(std::max(0.0, v))));
  }
  ++sampled_;
  window_start_ = now;
}

std::vector<TimeSeriesRecorder::Sample> TimeSeriesRecorder::samples(
    std::size_t index) const {
  config_check(index < names_.size(),
               "TimeSeriesRecorder: series index out of range");
  std::vector<Sample> out;
  out.reserve(held_);
  const std::size_t n = names_.size();
  for (std::size_t w = 0; w < held_; ++w) {
    const std::size_t slot = ring_slot(w);
    out.push_back({starts_[slot], ends_[slot], values_[slot * n + index]});
  }
  return out;
}

void TimeSeriesRecorder::write_csv(std::ostream& os, bool header,
                                   const std::string& row_prefix,
                                   const std::string& header_prefix) const {
  if (header) {
    os << header_prefix << "series,window,start_ps,end_ps,value\n";
  }
  const std::size_t n = names_.size();
  for (std::size_t w = 0; w < held_; ++w) {
    const std::size_t slot = ring_slot(w);
    // Window numbering is global (dropped windows keep their indices) so
    // that rows stay identifiable after ring eviction.
    const std::uint64_t window = dropped_ + w;
    for (std::size_t i = 0; i < n; ++i) {
      os << row_prefix << names_[i] << "," << window << "," << starts_[slot]
         << "," << ends_[slot] << ",";
      write_number(os, values_[slot * n + i]);
      os << "\n";
    }
  }
}

void TimeSeriesRecorder::save_csv(const std::string& path,
                                  const RunManifest* manifest) const {
  std::ofstream os(path);
  config_check(os.good(), "TimeSeriesRecorder: cannot write " + path);
  if (manifest != nullptr) {
    os << manifest->to_csv_comment();
  }
  write_csv(os);
  config_check(os.good(), "TimeSeriesRecorder: error writing " + path);
}

void TimeSeriesRecorder::write_json(std::ostream& os,
                                    const RunManifest* manifest) const {
  os << "{";
  if (manifest != nullptr) {
    os << "\"manifest\":" << manifest->to_json_object() << ",";
  }
  os << "\"window_ps\":" << cfg_.window_ps
     << ",\"windows_sampled\":" << sampled_
     << ",\"windows_dropped\":" << dropped_ << ",\"series\":{";
  const std::size_t n = names_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) {
      os << ",";
    }
    os << "\"" << util::json_escape(names_[i]) << "\":{\"kind\":\""
       << kind_name(kinds_[i]) << "\",\"samples\":[";
    bool first = true;
    for (std::size_t w = 0; w < held_; ++w) {
      const std::size_t slot = ring_slot(w);
      if (!first) {
        os << ",";
      }
      first = false;
      os << "[" << starts_[slot] << "," << ends_[slot] << ",";
      write_number(os, values_[slot * n + i]);
      os << "]";
    }
    const sim::Histogram& h = summaries_[i];
    os << "],\"summary\":{\"count\":" << h.count();
    if (h.count() > 0) {
      os << ",\"min\":" << h.min() << ",\"max\":" << h.max() << ",\"mean\":";
      write_number(os, h.mean());
      os << ",\"p50\":" << h.p50() << ",\"p99\":" << h.p99()
         << ",\"p999\":" << h.p999();
    }
    os << "}}";
  }
  os << "}}\n";
}

void TimeSeriesRecorder::save_json(const std::string& path,
                                   const RunManifest* manifest) const {
  std::ofstream os(path);
  config_check(os.good(), "TimeSeriesRecorder: cannot write " + path);
  write_json(os, manifest);
  config_check(os.good(), "TimeSeriesRecorder: error writing " + path);
}

}  // namespace fgqos::telemetry

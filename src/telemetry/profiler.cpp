#include "telemetry/profiler.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>

#include "telemetry/manifest.hpp"
#include "util/assert.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos::telemetry {

namespace {

/// Shortest round-tripping double render (same rationale as the metrics
/// exporter: profile documents are diffed by tooling, so keep them
/// canonical).
void write_number(std::ostream& os, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

/// "qos.regulator" -> "qos"; tags without a dot are their own group.
std::string_view tag_group(std::string_view name) {
  const std::size_t dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProfileSnapshot
// ---------------------------------------------------------------------------

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
  config_check(tag_table_version == other.tag_table_version,
               "ProfileSnapshot: merging across tag-table versions");
  total_cycles += other.total_cycles;
  events_dispatched += other.events_dispatched;
  ticks_dispatched += other.ticks_dispatched;
  // Tags fold by name; both sides are name-sorted, so one linear merge
  // keeps the result sorted (and therefore independent of merge order).
  std::vector<ProfileTagEntry> merged;
  merged.reserve(tags.size() + other.tags.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < tags.size() || j < other.tags.size()) {
    if (j == other.tags.size() ||
        (i < tags.size() && tags[i].name < other.tags[j].name)) {
      merged.push_back(std::move(tags[i++]));
    } else if (i == tags.size() || other.tags[j].name < tags[i].name) {
      merged.push_back(other.tags[j++]);
    } else {
      ProfileTagEntry e = std::move(tags[i++]);
      e.count += other.tags[j].count;
      e.cycles += other.tags[j].cycles;
      ++j;
      merged.push_back(std::move(e));
    }
  }
  tags = std::move(merged);
}

double ProfileSnapshot::coverage() const {
  if (total_cycles == 0) {
    return 0.0;
  }
  std::uint64_t attributed = 0;
  for (const ProfileTagEntry& t : tags) {
    attributed += t.cycles;
  }
  return static_cast<double>(attributed) / static_cast<double>(total_cycles);
}

void ProfileSnapshot::write_json_object(std::ostream& os) const {
  os << "{\"tag_table_version\":" << tag_table_version
     << ",\"total_cycles\":" << total_cycles << ",\"coverage\":";
  write_number(os, coverage());
  os << ",\"events\":{\"events_dispatched\":" << events_dispatched
     << ",\"ticks_dispatched\":" << ticks_dispatched << "}";
  os << ",\"tags\":[";
  bool first = true;
  for (const ProfileTagEntry& t : tags) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "{\"name\":\"" << util::json_escape(t.name)
       << "\",\"count\":" << t.count << ",\"cycles\":" << t.cycles
       << ",\"share\":";
    write_number(os, total_cycles == 0
                         ? 0.0
                         : static_cast<double>(t.cycles) /
                               static_cast<double>(total_cycles));
    os << "}";
  }
  os << "]}";
}

void ProfileSnapshot::write_json(std::ostream& os,
                                 const RunManifest* manifest) const {
  os << "{";
  if (manifest != nullptr) {
    os << "\"manifest\":" << manifest->to_json_object() << ",";
  }
  os << "\"profile\":";
  write_json_object(os);
  os << "}\n";
}

void ProfileSnapshot::save_json(const std::string& path,
                                const RunManifest* manifest) const {
  std::ofstream os(path);
  config_check(os.good(), "ProfileSnapshot: cannot write " + path);
  write_json(os, manifest);
  config_check(os.good(), "ProfileSnapshot: error writing " + path);
}

void ProfileSnapshot::write_folded(std::ostream& os) const {
  for (const ProfileTagEntry& t : tags) {
    if (t.cycles == 0) {
      continue;  // flamegraph tooling chokes on zero-weight frames
    }
    os << "fgqos;" << tag_group(t.name) << ";" << t.name << " " << t.cycles
       << "\n";
  }
}

void ProfileSnapshot::save_folded(const std::string& path) const {
  std::ofstream os(path);
  config_check(os.good(), "ProfileSnapshot: cannot write " + path);
  write_folded(os);
  config_check(os.good(), "ProfileSnapshot: error writing " + path);
}

// ---------------------------------------------------------------------------
// HostProfiler
// ---------------------------------------------------------------------------

HostProfiler::HostProfiler() {
  const std::uint32_t untagged = register_tag("kernel.untagged");
  const std::uint32_t overhead = register_tag("kernel.overhead");
  FGQOS_ASSERT(untagged == sim::kProfTagUntagged &&
                   overhead == sim::kProfTagOverhead,
               "HostProfiler: well-known tag ids out of sync with sim/prof");
}

std::uint32_t HostProfiler::register_tag(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  config_check(names_.size() < sim::ProfTable::kMaxTags,
               "HostProfiler: tag table full (" +
                   std::to_string(sim::ProfTable::kMaxTags) + " tags)");
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

void HostProfiler::attach(sim::Simulator& sim) {
  sim.set_profiler(&table_, [this](std::string_view name) {
    return register_tag(name);
  });
}

ProfileSnapshot HostProfiler::snapshot() const {
  ProfileSnapshot s;
  s.total_cycles = table_.total_cycles;
  s.events_dispatched = table_.events_dispatched;
  s.ticks_dispatched = table_.ticks_dispatched;
  // Materialise only the live tags under their names, sorted.
  for (std::size_t id = 0; id < names_.size(); ++id) {
    const sim::ProfTagStat& t = table_.tags[id];
    if (t.count == 0 && t.cycles == 0) {
      continue;
    }
    s.tags.push_back(ProfileTagEntry{names_[id], t.count, t.cycles});
  }
  std::sort(s.tags.begin(), s.tags.end(),
            [](const ProfileTagEntry& a, const ProfileTagEntry& b) {
              return a.name < b.name;
            });
  return s;
}

}  // namespace fgqos::telemetry

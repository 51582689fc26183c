#include "qos/envelope.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos::qos {
namespace {

std::string num(double d) { return envelope_double(d); }

double get_num(const util::JsonValue& obj, const char* key, double dflt = 0.0) {
  if (!obj.contains(key)) return dflt;
  return obj.at(key).as_number();
}

std::uint64_t get_u64(const util::JsonValue& obj, const char* key,
                      std::uint64_t dflt = 0) {
  if (!obj.contains(key)) return dflt;
  const auto& v = obj.at(key);
  if (v.is_uint64()) return v.as_uint64();
  return static_cast<std::uint64_t>(v.as_number());
}

std::string get_str(const util::JsonValue& obj, const char* key) {
  if (!obj.contains(key)) return {};
  return obj.at(key).as_string();
}

void emit_stats(std::ostream& os, const EnvelopeEvalStats& s) {
  os << "{\"aggressor_bps\":" << num(s.aggressor_bps)
     << ",\"iter_mean_ps\":" << num(s.iter_mean_ps)
     << ",\"iter_p99_ps\":" << num(s.iter_p99_ps)
     << ",\"read_p99_ps\":" << num(s.read_p99_ps)
     << ",\"slo_miss_frac\":" << num(s.slo_miss_frac)
     << ",\"victim_bw_bps\":" << num(s.victim_bw_bps) << "}";
}

EnvelopeEvalStats parse_stats(const util::JsonValue& v) {
  EnvelopeEvalStats s;
  s.aggressor_bps = get_num(v, "aggressor_bps");
  s.iter_mean_ps = get_num(v, "iter_mean_ps");
  s.iter_p99_ps = get_num(v, "iter_p99_ps");
  s.read_p99_ps = get_num(v, "read_p99_ps");
  s.slo_miss_frac = get_num(v, "slo_miss_frac");
  s.victim_bw_bps = get_num(v, "victim_bw_bps");
  return s;
}

}  // namespace

std::string envelope_double(double d) {
  char buf[64];
  if (d == static_cast<double>(static_cast<long long>(d)) && d > -1e15 &&
      d < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

std::string to_canonical_json(const util::JsonValue& v) {
  std::ostringstream os;
  switch (v.kind()) {
    case util::JsonValue::Kind::kNull:
      os << "null";
      break;
    case util::JsonValue::Kind::kBool:
      os << (v.as_bool() ? "true" : "false");
      break;
    case util::JsonValue::Kind::kNumber:
      if (v.is_uint64()) {
        os << v.as_uint64();
      } else {
        os << envelope_double(v.as_number());
      }
      break;
    case util::JsonValue::Kind::kString:
      os << '"' << util::json_escape(v.as_string()) << '"';
      break;
    case util::JsonValue::Kind::kArray: {
      os << '[';
      bool first = true;
      for (const auto& e : v.as_array()) {
        if (!first) os << ',';
        first = false;
        os << to_canonical_json(e);
      }
      os << ']';
      break;
    }
    case util::JsonValue::Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) os << ',';
        first = false;
        os << '"' << util::json_escape(k) << "\":" << to_canonical_json(e);
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

std::string CertifiedEnvelope::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":" << schema_version
     << ",\"manifest\":" << manifest.to_json_object() << ",\"provenance\":{"
     << "\"optimizer\":\"" << util::json_escape(optimizer) << "\""
     << ",\"objective\":\"" << util::json_escape(objective) << "\""
     << ",\"seed\":" << seed << ",\"evaluations\":" << evaluations
     << ",\"space_hash\":\"" << space_hash << "\""
     << ",\"spec_hash\":\"" << spec_hash << "\""
     << ",\"fault_spec_hash\":\"" << fault_spec_hash << "\""
     << ",\"victim_accesses\":" << victim_accesses
     << ",\"victim_iterations\":" << victim_iterations
     << ",\"deadline_ms\":" << num(deadline_ms)
     << ",\"slo_iter_us\":" << num(slo_iter_us)
     << ",\"regulated_budget_mbps\":" << num(regulated_budget_mbps)
     << ",\"window_us\":" << num(window_us) << ",\"margin\":" << num(margin)
     << ",\"validate_seeds\":[";
  for (std::size_t i = 0; i < validate_seeds.size(); ++i) {
    if (i != 0) os << ',';
    os << validate_seeds[i];
  }
  os << "],\"solo_iter_mean_ps\":" << num(solo_iter_mean_ps)
     << ",\"exp1_mix_objective\":" << num(exp1_mix_objective)
     << "},\"argmax\":{\"config\":" << argmax_config_json
     << ",\"objective\":" << num(argmax_objective) << ",\"unregulated\":";
  emit_stats(os, unregulated);
  os << ",\"regulated\":";
  emit_stats(os, regulated);
  os << "},\"capacity_bps\":" << num(capacity_bps)
     << ",\"max_reservable_frac\":" << num(max_reservable_frac)
     << ",\"certified_total_bps\":" << num(certified_total_bps)
     << ",\"masters\":{";
  bool first = true;
  for (const auto& [name, b] : masters) {
    if (!first) os << ',';
    first = false;
    os << '"' << util::json_escape(name) << "\":{"
       << "\"max_p99_ps\":" << num(b.max_p99_ps)
       << ",\"min_bandwidth_bps\":" << num(b.min_bandwidth_bps)
       << ",\"max_bandwidth_bps\":" << num(b.max_bandwidth_bps)
       << ",\"max_slowdown\":" << num(b.max_slowdown)
       << ",\"max_reserved_bps\":" << num(b.max_reserved_bps) << '}';
  }
  os << "}}\n";
  return os.str();
}

CertifiedEnvelope CertifiedEnvelope::from_json(const util::JsonValue& v) {
  if (!v.is_object()) {
    throw ConfigError("envelope: top-level JSON value must be an object");
  }
  CertifiedEnvelope e;
  e.schema_version = static_cast<int>(get_num(v, "schema_version", -1));
  if (e.schema_version != kSchemaVersion) {
    throw ConfigError("envelope: unsupported schema_version " +
                            std::to_string(e.schema_version) + " (expected " +
                            std::to_string(kSchemaVersion) + ")");
  }
  if (v.contains("manifest")) {
    e.manifest = telemetry::RunManifest::from_json(v.at("manifest"));
  }
  if (v.contains("provenance")) {
    const auto& p = v.at("provenance");
    e.optimizer = get_str(p, "optimizer");
    e.objective = get_str(p, "objective");
    e.seed = get_u64(p, "seed");
    e.evaluations = get_u64(p, "evaluations");
    e.space_hash = get_str(p, "space_hash");
    e.spec_hash = get_str(p, "spec_hash");
    e.fault_spec_hash = get_str(p, "fault_spec_hash");
    e.victim_accesses = get_u64(p, "victim_accesses");
    e.victim_iterations = get_u64(p, "victim_iterations");
    e.deadline_ms = get_num(p, "deadline_ms");
    e.slo_iter_us = get_num(p, "slo_iter_us");
    e.regulated_budget_mbps = get_num(p, "regulated_budget_mbps");
    e.window_us = get_num(p, "window_us");
    e.margin = get_num(p, "margin");
    if (p.contains("validate_seeds")) {
      for (const auto& s : p.at("validate_seeds").as_array()) {
        e.validate_seeds.push_back(s.as_uint64());
      }
    }
    e.solo_iter_mean_ps = get_num(p, "solo_iter_mean_ps");
    e.exp1_mix_objective = get_num(p, "exp1_mix_objective");
  }
  if (v.contains("argmax")) {
    const auto& a = v.at("argmax");
    if (a.contains("config")) {
      e.argmax_config_json = to_canonical_json(a.at("config"));
    }
    e.argmax_objective = get_num(a, "objective");
    if (a.contains("unregulated")) e.unregulated = parse_stats(a.at("unregulated"));
    if (a.contains("regulated")) e.regulated = parse_stats(a.at("regulated"));
  }
  e.capacity_bps = get_num(v, "capacity_bps");
  e.max_reservable_frac = get_num(v, "max_reservable_frac");
  e.certified_total_bps = get_num(v, "certified_total_bps");
  if (v.contains("masters")) {
    for (const auto& [name, b] : v.at("masters").as_object()) {
      MasterBound mb;
      mb.max_p99_ps = get_num(b, "max_p99_ps");
      mb.min_bandwidth_bps = get_num(b, "min_bandwidth_bps");
      mb.max_bandwidth_bps = get_num(b, "max_bandwidth_bps");
      mb.max_slowdown = get_num(b, "max_slowdown");
      mb.max_reserved_bps = get_num(b, "max_reserved_bps");
      e.masters.emplace(name, mb);
    }
  }
  return e;
}

CertifiedEnvelope CertifiedEnvelope::from_file(const std::string& path) {
  return from_json(util::JsonValue::parse(
      util::read_file(path, "envelope: cannot open " + path)));
}

void CertifiedEnvelope::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw ConfigError("envelope: cannot write " + path);
  out << to_json();
}

const MasterBound* CertifiedEnvelope::bound_for(
    const std::string& master) const {
  auto it = masters.find(master);
  return it == masters.end() ? nullptr : &it->second;
}

}  // namespace fgqos::qos

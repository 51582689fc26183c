#include "fault/fault_plan.hpp"

#include <cmath>

#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos::fault {

namespace {

constexpr const char* kKindNames[kFaultKindCount] = {
    "axi_slverr",    "axi_decerr",      "port_stall",
    "reg_irq_drop",  "reg_irq_delay",   "monitor_freeze",
    "monitor_saturate", "mg_irq_drop",  "mg_irq_delay",
    "refresh_storm",
};

constexpr const char* kSpec = "FaultPlan";

}  // namespace

using util::append_number;
using util::append_u64;

const char* fault_kind_name(FaultKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kFaultKindCount ? kKindNames[i] : "?";
}

FaultKind fault_kind_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    if (name == kKindNames[i]) {
      return static_cast<FaultKind>(i);
    }
  }
  throw ConfigError("FaultPlan: unknown fault kind '" + name + "'");
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  config_check(doc.is_object(), "FaultPlan: top level must be an object");
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    config_check(key == "seed" || key == "faults",
                 "FaultPlan: unknown top-level key '" + key + "'");
  }
  FaultPlan plan;
  if (doc.contains("seed")) {
    plan.seed = util::get_u64(doc, kSpec, "seed");
  }
  if (!doc.contains("faults")) {
    return plan;
  }
  config_check(doc.at("faults").is_array(),
               "FaultPlan: 'faults' must be an array");
  for (const util::JsonValue& f : doc.at("faults").as_array()) {
    config_check(f.is_object(), "FaultPlan: each fault must be an object");
    for (const auto& [key, value] : f.as_object()) {
      (void)value;
      config_check(key == "kind" || key == "target" || key == "prob" ||
                       key == "start_us" || key == "end_us" ||
                       key == "delay_us" || key == "period_us" ||
                       key == "duration_us" || key == "cap_bytes" ||
                       key == "factor",
                   "FaultPlan: unknown fault key '" + key + "'");
    }
    config_check(f.contains("kind"), "FaultPlan: fault without 'kind'");
    FaultSpec s;
    s.kind = fault_kind_from_name(f.at("kind").as_string());
    if (f.contains("target")) {
      const double t = f.at("target").as_number();
      config_check(t == std::floor(t) && t >= -1 && t < 65535,
                   "FaultPlan: 'target' must be an integer >= -1");
      s.target = static_cast<int>(t);
    }
    if (f.contains("prob")) {
      s.probability = f.at("prob").as_number();
      config_check(s.probability >= 0.0 && s.probability <= 1.0,
                   "FaultPlan: 'prob' must be in [0, 1]");
    }
    if (f.contains("start_us")) {
      s.start_ps = util::get_us_as_ps(f, kSpec, "start_us");
    }
    if (f.contains("end_us")) {
      s.end_ps = util::get_us_as_ps(f, kSpec, "end_us");
      config_check(s.end_ps > s.start_ps,
                   "FaultPlan: 'end_us' must be after 'start_us'");
    }
    if (f.contains("delay_us")) {
      s.delay_ps = util::get_us_as_ps(f, kSpec, "delay_us");
    }
    if (f.contains("period_us")) {
      s.period_ps = util::get_us_as_ps(f, kSpec, "period_us");
    }
    if (f.contains("duration_us")) {
      s.duration_ps = util::get_us_as_ps(f, kSpec, "duration_us");
    }
    if (f.contains("cap_bytes")) {
      s.cap_bytes = util::get_u64(f, kSpec, "cap_bytes");
    }
    if (f.contains("factor")) {
      const std::uint64_t factor = util::get_u64(f, kSpec, "factor");
      config_check(factor >= 1 && factor <= 1024,
                   "FaultPlan: 'factor' must be in [1, 1024]");
      s.factor = static_cast<std::uint32_t>(factor);
    }
    // Per-kind requirements.
    switch (s.kind) {
      case FaultKind::kPortStall:
        config_check(s.period_ps > 0 && s.duration_ps > 0,
                     "FaultPlan: port_stall needs 'period_us' and "
                     "'duration_us' > 0");
        break;
      case FaultKind::kRegIrqDelay:
      case FaultKind::kMemguardIrqDelay:
        config_check(s.delay_ps > 0,
                     "FaultPlan: *_irq_delay needs 'delay_us' > 0");
        break;
      case FaultKind::kMonitorSaturate:
        config_check(s.cap_bytes > 0,
                     "FaultPlan: monitor_saturate needs 'cap_bytes' > 0");
        break;
      default:
        break;
    }
    plan.faults.push_back(s);
  }
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  return from_json(
      util::read_file(path, "FaultPlan: cannot open '" + path + "'"));
}

std::string FaultPlan::to_json() const {
  std::string out = "{\"seed\": ";
  append_u64(out, seed);
  out += ", \"faults\": [";
  bool first = true;
  for (const FaultSpec& s : faults) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{\"kind\": \"";
    out += fault_kind_name(s.kind);
    out += '"';
    if (s.target >= 0) {
      out += ", \"target\": ";
      out += std::to_string(s.target);
    }
    if (s.probability != 1.0) {
      out += ", \"prob\": ";
      append_number(out, s.probability);
    }
    const auto us = [](sim::TimePs ps) {
      return static_cast<double>(ps) / static_cast<double>(sim::kPsPerUs);
    };
    if (s.start_ps > 0) {
      out += ", \"start_us\": ";
      append_number(out, us(s.start_ps));
    }
    if (s.end_ps != sim::kTimeNever) {
      out += ", \"end_us\": ";
      append_number(out, us(s.end_ps));
    }
    if (s.delay_ps > 0) {
      out += ", \"delay_us\": ";
      append_number(out, us(s.delay_ps));
    }
    if (s.period_ps > 0) {
      out += ", \"period_us\": ";
      append_number(out, us(s.period_ps));
    }
    if (s.duration_ps > 0) {
      out += ", \"duration_us\": ";
      append_number(out, us(s.duration_ps));
    }
    if (s.cap_bytes > 0) {
      out += ", \"cap_bytes\": ";
      append_u64(out, s.cap_bytes);
    }
    if (s.kind == FaultKind::kRefreshStorm) {
      out += ", \"factor\": ";
      append_u64(out, s.factor);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace fgqos::fault

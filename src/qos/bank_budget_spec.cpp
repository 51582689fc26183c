#include "qos/bank_budget_spec.hpp"

#include <cmath>

#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos::qos {

namespace {

double as_mbps(const util::JsonValue& v, const std::string& key) {
  const double d = v.as_number();
  config_check(std::isfinite(d) && d >= 0,
               "BankBudgetSpec: '" + key + "' must be a finite rate >= 0");
  return d;
}

}  // namespace

using util::append_number;

BankBudgetSpec BankBudgetSpec::from_json(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  config_check(doc.is_object(), "BankBudgetSpec: top level must be an object");
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    config_check(key == "window_us" || key == "kind" ||
                     key == "max_accumulation_windows" || key == "ports",
                 "BankBudgetSpec: unknown top-level key '" + key + "'");
  }
  BankBudgetSpec spec;
  if (doc.contains("window_us")) {
    spec.window_ps = util::get_us_as_ps(doc, "BankBudgetSpec", "window_us",
                                        /*allow_zero=*/false);
  }
  if (doc.contains("kind")) {
    const std::string& k = doc.at("kind").as_string();
    if (k == "fixed_window") {
      spec.kind = ReplenishKind::kFixedWindow;
    } else if (k == "token_bucket") {
      spec.kind = ReplenishKind::kTokenBucket;
    } else {
      throw ConfigError("BankBudgetSpec: unknown kind '" + k +
                        "' (expected fixed_window or token_bucket)");
    }
  }
  if (doc.contains("max_accumulation_windows")) {
    const double d = doc.at("max_accumulation_windows").as_number();
    config_check(d == std::floor(d) && d >= 1 && d <= 1024,
                 "BankBudgetSpec: 'max_accumulation_windows' must be an "
                 "integer in [1, 1024]");
    spec.max_accumulation_windows = static_cast<std::uint64_t>(d);
  }
  config_check(doc.contains("ports"), "BankBudgetSpec: missing 'ports'");
  config_check(doc.at("ports").is_array(),
               "BankBudgetSpec: 'ports' must be an array");
  for (const util::JsonValue& p : doc.at("ports").as_array()) {
    config_check(p.is_object(),
                 "BankBudgetSpec: each port entry must be an object");
    for (const auto& [key, value] : p.as_object()) {
      (void)value;
      config_check(key == "port" || key == "default_mbps" || key == "banks",
                   "BankBudgetSpec: unknown port key '" + key + "'");
    }
    config_check(p.contains("port"),
                 "BankBudgetSpec: port entry without 'port'");
    PortBudget pb;
    const double port = p.at("port").as_number();
    config_check(port == std::floor(port) && port >= 0 && port < 64,
                 "BankBudgetSpec: 'port' must be an integer in [0, 64)");
    pb.port = static_cast<std::uint32_t>(port);
    for (const PortBudget& seen : spec.ports) {
      config_check(seen.port != pb.port,
                   "BankBudgetSpec: duplicate port " +
                       std::to_string(pb.port));
    }
    if (p.contains("default_mbps")) {
      pb.default_mbps = as_mbps(p.at("default_mbps"), "default_mbps");
    }
    if (p.contains("banks")) {
      config_check(p.at("banks").is_object(),
                   "BankBudgetSpec: 'banks' must be an object");
      for (const auto& [bank_key, rate] : p.at("banks").as_object()) {
        std::size_t pos = 0;
        unsigned long bank = 0;
        try {
          bank = std::stoul(bank_key, &pos);
        } catch (const std::exception&) {
          pos = 0;
        }
        config_check(pos == bank_key.size() && !bank_key.empty() &&
                         bank < 1024,
                     "BankBudgetSpec: bank key '" + bank_key +
                         "' must be a bank index");
        pb.bank_mbps[static_cast<std::uint32_t>(bank)] =
            as_mbps(rate, "banks." + bank_key);
      }
    }
    spec.ports.push_back(std::move(pb));
  }
  return spec;
}

BankBudgetSpec BankBudgetSpec::load(const std::string& path) {
  return from_json(
      util::read_file(path, "BankBudgetSpec: cannot read " + path));
}

std::string BankBudgetSpec::to_json() const {
  std::string out = "{\"window_us\":";
  append_number(out, static_cast<double>(window_ps) /
                         static_cast<double>(sim::kPsPerUs));
  out += ",\"kind\":\"";
  out += kind == ReplenishKind::kFixedWindow ? "fixed_window"
                                             : "token_bucket";
  out += "\",\"max_accumulation_windows\":";
  out += std::to_string(max_accumulation_windows);
  out += ",\"ports\":[";
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const PortBudget& pb = ports[i];
    if (i != 0) {
      out += ',';
    }
    out += "{\"port\":" + std::to_string(pb.port) + ",\"default_mbps\":";
    append_number(out, pb.default_mbps);
    out += ",\"banks\":{";
    bool first = true;
    for (const auto& [bank, mbps] : pb.bank_mbps) {
      if (!first) {
        out += ',';
      }
      first = false;
      out.append("\"");
      out.append(std::to_string(bank));
      out.append("\":");
      append_number(out, mbps);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::vector<std::uint64_t> BankBudgetSpec::budgets_for(
    const PortBudget& pb, std::uint32_t banks) const {
  std::vector<std::uint64_t> budgets(banks, 0);
  const std::uint64_t default_budget =
      pb.default_mbps > 0
          ? budget_for_rate(pb.default_mbps * 1e6, window_ps)
          : 0;
  for (std::uint32_t b = 0; b < banks; ++b) {
    budgets[b] = default_budget;
  }
  for (const auto& [bank, mbps] : pb.bank_mbps) {
    config_check(bank < banks,
                 "BankBudgetSpec: bank " + std::to_string(bank) +
                     " out of range for " + std::to_string(banks) +
                     "-bank DRAM");
    budgets[bank] = mbps > 0 ? budget_for_rate(mbps * 1e6, window_ps) : 0;
  }
  return budgets;
}

}  // namespace fgqos::qos

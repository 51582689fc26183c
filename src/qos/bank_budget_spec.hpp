/// \file bank_budget_spec.hpp
/// \brief Per-bank budget plan for bank-keyed regulators.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qos/window.hpp"
#include "sim/time.hpp"

namespace fgqos::qos {

/// Host-programmable per-bank budget plan, parsed from `--bank-budget-spec`
/// JSON. Shape:
///
/// ```json
/// {
///   "window_us": 10,
///   "kind": "token_bucket",
///   "max_accumulation_windows": 4,
///   "ports": [
///     {"port": 0, "default_mbps": 0, "banks": {"1": 50, "2": 100}}
///   ]
/// }
/// ```
///
/// `port` indexes the SoC's accelerator (HP) ports. `default_mbps` applies
/// to every bank without an explicit override; 0 (the default) leaves a
/// bank unregulated. Parsing is strict: unknown keys are rejected so typos
/// fail loudly instead of silently deregulating a bank.
struct BankBudgetSpec {
  struct PortBudget {
    std::uint32_t port = 0;
    double default_mbps = 0.0;
    std::map<std::uint32_t, double> bank_mbps;
  };

  sim::TimePs window_ps = 10 * sim::kPsPerUs;
  ReplenishKind kind = ReplenishKind::kFixedWindow;
  std::uint64_t max_accumulation_windows = 1;
  std::vector<PortBudget> ports;

  static BankBudgetSpec from_json(const std::string& text);
  static BankBudgetSpec load(const std::string& path);
  /// Canonical re-serialisation (manifest provenance hashing).
  [[nodiscard]] std::string to_json() const;
  /// Per-window byte budgets for one port entry, sized to \p banks.
  [[nodiscard]] std::vector<std::uint64_t> budgets_for(
      const PortBudget& pb, std::uint32_t banks) const;
};

}  // namespace fgqos::qos

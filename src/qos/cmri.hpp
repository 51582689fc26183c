/// \file cmri.hpp
/// \brief Controlled Memory Request Injection on top of PREM.
///
/// CMRI (Brilli et al., 2022) relaxes PREM's mutual exclusion: masters that
/// do not own the current slot may still inject a bounded number of bytes
/// per slot, chosen small enough that the owner's slowdown stays below a
/// target (the prior work shows >40% of the otherwise-wasted bandwidth can
/// be recovered while keeping the owner's slowdown under 10%).
///
/// Use INSTEAD of attaching the PremArbiter gate directly: attach one
/// CmriInjector (sharing the PremArbiter for slot state) to every port.
/// A slot boundary or a budget write signals reopened().
#pragma once

#include <cstdint>
#include <vector>

#include "axi/port.hpp"
#include "qos/prem_arbiter.hpp"
#include "sim/time.hpp"

namespace fgqos::qos {

/// CMRI configuration.
struct CmriConfig {
  /// Bytes a non-owner master may inject per slot.
  std::uint64_t injection_budget_bytes = 2048;
};

/// The injection gate.
class CmriInjector final : public axi::TxnGate {
 public:
  /// \param prem supplies slot ownership; the injector registers itself as
  ///             a slot listener to refill injection budgets.
  CmriInjector(PremArbiter& prem, CmriConfig cfg);

  [[nodiscard]] const CmriConfig& config() const { return cfg_; }
  /// Remaining injection budget of \p master in the current slot.
  [[nodiscard]] std::uint64_t remaining(axi::MasterId master) const;
  /// Total bytes injected (non-owner grants) since construction.
  [[nodiscard]] std::uint64_t injected_bytes() const { return injected_; }
  /// Reprograms the per-slot injection budget (applies from now on).
  void set_injection_budget(std::uint64_t bytes);

  // TxnGate
  [[nodiscard]] bool allow(const axi::LineRequest& line,
                           sim::TimePs now) const override;
  void on_grant(const axi::LineRequest& line, sim::TimePs now) override;

 private:
  PremArbiter& prem_;
  CmriConfig cfg_;
  std::vector<std::uint64_t> spent_;  ///< per master, this slot
  std::uint64_t injected_ = 0;
};

}  // namespace fgqos::qos

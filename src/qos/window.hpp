/// \file window.hpp
/// \brief Budget-accounting primitives shared by regulators.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace fgqos::qos {

/// How a regulator replenishes its budget.
enum class ReplenishKind : std::uint8_t {
  /// Tokens reset to the window budget at each boundary (outstanding debt
  /// is carried over and repaid); unused surplus is lost — classic
  /// MemGuard window semantics.
  kFixedWindow,
  /// Tokens accumulate across boundaries up to a burst cap of
  /// max_accumulation_windows * budget (token-bucket semantics).
  kTokenBucket,
};

/// Signed byte-credit accounting with overdraft.
///
/// A grant is admitted whenever the credit is positive; the grant's full
/// cost is then debited and may drive the credit negative (bounded by one
/// grant size). Debt is repaid out of the next replenish. This
/// credit-based scheme is how beat-level hardware regulators avoid the
/// systematic undershoot of strict "enough tokens" checks when the window
/// budget is not a multiple of the transfer size: the long-run average
/// equals the programmed rate exactly, with per-window overshoot bounded
/// by one transfer (as long as every grant is debited when it happens).
class TokenBucket {
 public:
  /// \param budget_bytes tokens granted per window
  /// \param kind         reset or accumulate semantics
  /// \param max_accumulation_windows burst cap in window-budgets (>= 1)
  TokenBucket(std::uint64_t budget_bytes, ReplenishKind kind,
              std::uint64_t max_accumulation_windows = 1);

  /// True when a grant may be admitted right now (credit positive).
  [[nodiscard]] bool can_spend() const { return tokens_ > 0; }

  /// Debits \p bytes (may drive the credit negative). Pre: can_spend().
  void spend(std::uint64_t bytes);

  /// Debits \p bytes of a grant the owner learns of only after a lag,
  /// with no credit precondition: the grant was admitted on stale credit,
  /// so under lag the overdraft is unbounded (the effect the coupling
  /// ablation measures).
  void debit_late(std::uint64_t bytes) {
    tokens_ -= static_cast<std::int64_t>(bytes);
  }

  /// Window boundary: refill per the replenish kind.
  void replenish();

  /// Clears any overdraft (credit below zero becomes zero).
  void forgive_debt() { tokens_ = std::max<std::int64_t>(tokens_, 0); }

  /// Changes the per-window budget. An immediate clamp avoids stale
  /// oversized credit pools.
  void set_budget(std::uint64_t budget_bytes);

  /// Reloads the credit counter to one full window budget, discarding any
  /// partial spend or outstanding debt — the start-of-window state. Only
  /// an explicit host command (CTRL restart) uses this; set_budget()
  /// deliberately never refills.
  void load();

  /// Current credit (negative while in overdraft).
  [[nodiscard]] std::int64_t tokens() const { return tokens_; }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }
  [[nodiscard]] ReplenishKind kind() const { return kind_; }
  [[nodiscard]] std::int64_t cap() const {
    return static_cast<std::int64_t>(budget_ * max_windows_);
  }

 private:
  std::uint64_t budget_;
  ReplenishKind kind_;
  std::uint64_t max_windows_;
  std::int64_t tokens_;
};

/// Converts a bytes/second rate into a per-window byte budget (rounded to
/// the nearest byte, minimum 1 when rate > 0).
std::uint64_t budget_for_rate(double bytes_per_second, sim::TimePs window_ps);

}  // namespace fgqos::qos

/// \file bank.hpp
/// \brief Per-bank state machine with timing-window bookkeeping.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/time.hpp"

namespace fgqos::dram {

/// Tracks one DRAM bank: the open row and the earliest cycle each command
/// class may next be issued to it. All times are absolute controller-clock
/// cycle indices (not ps), maintained by the controller.
class Bank {
 public:
  using Cycle = std::uint64_t;

  [[nodiscard]] bool row_open() const { return open_row_.has_value(); }
  [[nodiscard]] bool row_hit(std::uint64_t row) const {
    return open_row_ == row;
  }

  [[nodiscard]] Cycle act_ready() const { return act_ready_; }
  [[nodiscard]] Cycle cas_ready() const { return cas_ready_; }
  [[nodiscard]] Cycle pre_ready() const { return pre_ready_; }

  /// Applies an ACT of \p row at cycle \p c.
  /// \param t_rcd ACT->CAS, \param t_ras ACT->PRE, \param t_rc ACT->ACT.
  void activate(std::uint64_t row, Cycle c, std::uint32_t t_rcd,
                std::uint32_t t_ras, std::uint32_t t_rc);

  /// Applies a PRE at cycle \p c. \param t_rp PRE->ACT.
  void precharge(Cycle c, std::uint32_t t_rp);

  /// Applies a read CAS at cycle \p c. \param t_rtp read->PRE gap.
  void read_cas(Cycle c, std::uint32_t t_rtp);

  /// Applies a write CAS at cycle \p c; \p data_end is the cycle the write
  /// burst finishes on the bus, \p t_wr the write recovery after it.
  void write_cas(Cycle data_end, std::uint32_t t_wr);

  /// Forces the bank closed (refresh) and blocks ACT until \p ready.
  void refresh_block(Cycle ready);

  /// Row activations since construction (row-miss count for this bank).
  [[nodiscard]] std::uint64_t activations() const { return activations_; }

 private:
  std::optional<std::uint64_t> open_row_;
  Cycle act_ready_ = 0;
  Cycle cas_ready_ = 0;   ///< earliest CAS to the open row
  Cycle pre_ready_ = 0;
  std::uint64_t activations_ = 0;
};

}  // namespace fgqos::dram

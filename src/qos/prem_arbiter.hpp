/// \file prem_arbiter.hpp
/// \brief PREM-style mutually-exclusive memory-phase arbitration (TDMA).
///
/// The Predictable Execution Model baseline: time is divided into fixed
/// slots; during a slot only the slot's owner may access memory, all other
/// masters are gated. This gives the owner interference-free latency at
/// the cost of leaving the owner's unused bandwidth entirely on the floor
/// — the inefficiency CMRI and the paper's HW QoS recover.
///
/// Attach the same instance as a gate on every participating port. Each
/// slot boundary signals reopened().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "axi/port.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fgqos::qos {

/// Wildcard owner: every master may access memory during such a slot
/// (used to model "FPGA slots" shared by all accelerators while the CPU
/// slot is exclusive).
inline constexpr axi::MasterId kAllMasters = 0xFFFF;

/// PREM TDMA configuration.
struct PremConfig {
  /// Slot owners in rotation order (master ids; repetition allowed to give
  /// a master multiple slots per frame; kAllMasters = shared slot).
  std::vector<axi::MasterId> schedule;
  /// Slot length.
  sim::TimePs slot_ps = 10 * sim::kPsPerUs;
};

/// Callback invoked at each slot boundary with (new owner, slot start).
using SlotChangeFn = std::function<void(axi::MasterId, sim::TimePs)>;

/// The TDMA gate.
class PremArbiter final : public axi::TxnGate {
 public:
  PremArbiter(sim::Simulator& sim, PremConfig cfg);

  /// Master currently entitled to access memory.
  [[nodiscard]] axi::MasterId owner() const { return cfg_.schedule[slot_]; }
  [[nodiscard]] const PremConfig& config() const { return cfg_; }
  /// Number of completed slots.
  [[nodiscard]] std::uint64_t slots_elapsed() const { return slots_elapsed_; }

  /// Registers a slot-boundary listener (e.g. CmriInjector).
  void add_slot_listener(SlotChangeFn fn);

  // TxnGate: only the owner passes.
  [[nodiscard]] bool allow(const axi::LineRequest& line,
                           sim::TimePs now) const override;
  void on_grant(const axi::LineRequest& line, sim::TimePs now) override;

 private:
  void on_slot_boundary();

  sim::Simulator& sim_;
  PremConfig cfg_;
  sim::EventQueue::RecurringId slot_event_ = 0;
  std::size_t slot_ = 0;
  std::uint64_t slots_elapsed_ = 0;
  std::vector<SlotChangeFn> listeners_;
};

}  // namespace fgqos::qos

/// \file arbiter.hpp
/// \brief Grant arbiters for the interconnect: round robin and fixed priority.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace fgqos::axi {

/// Chooses which eligible master is granted in a given cycle.
class Arbiter {
 public:
  virtual ~Arbiter() = default;
  /// \param eligible one flag per master id; true = has a grantable line.
  /// \return the chosen master id, or -1 when none is eligible.
  virtual int pick(const std::vector<bool>& eligible, sim::TimePs now) = 0;
  /// Human-readable policy name for reports.
  [[nodiscard]] virtual const char* policy_name() const = 0;
};

/// Classic rotating-priority round robin: fair at line granularity.
class RoundRobinArbiter final : public Arbiter {
 public:
  int pick(const std::vector<bool>& eligible, sim::TimePs now) override;
  [[nodiscard]] const char* policy_name() const override { return "rr"; }

 private:
  std::size_t next_ = 0;
};

/// Strict priority by a static per-master level (higher wins); equal
/// levels fall back to round robin. Models AXI QoS-aware fabric arbitration.
class FixedPriorityArbiter final : public Arbiter {
 public:
  /// \param priority one level per master id.
  explicit FixedPriorityArbiter(std::vector<int> priority);
  int pick(const std::vector<bool>& eligible, sim::TimePs now) override;
  [[nodiscard]] const char* policy_name() const override { return "priority"; }

 private:
  std::vector<int> priority_;
  std::size_t rr_next_ = 0;
};

}  // namespace fgqos::axi

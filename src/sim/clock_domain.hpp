/// \file clock_domain.hpp
/// \brief A named clock with conversions between cycles and picoseconds.
#pragma once

#include <string>

#include "sim/time.hpp"

namespace fgqos::sim {

/// One synchronous clock domain. Components belonging to a domain are
/// ticked on its rising edges; edge N occurs at time N * period_ps.
class ClockDomain {
 public:
  /// \param name      human-readable label used in stats and logs
  /// \param period_ps clock period; must be > 0 (checked)
  ClockDomain(std::string name, TimePs period_ps);

  /// Convenience factory from a frequency in MHz.
  static ClockDomain from_mhz(std::string name, std::uint64_t mhz);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TimePs period_ps() const { return period_ps_; }

  /// Time of the given edge number.
  [[nodiscard]] TimePs edge_time(Cycles edge) const {
    return edge * period_ps_;
  }

  /// Number of whole cycles elapsed at absolute time \p t.
  [[nodiscard]] Cycles cycles_at(TimePs t) const { return t / period_ps_; }

  /// First edge at or after \p t.
  [[nodiscard]] TimePs next_edge_at_or_after(TimePs t) const {
    return ((t + period_ps_ - 1) / period_ps_) * period_ps_;
  }

  /// Index of the first edge at or after \p t (edge_time() inverts this).
  [[nodiscard]] Cycles edge_index_at_or_after(TimePs t) const {
    return (t + period_ps_ - 1) / period_ps_;
  }

  /// Smallest cycle count whose duration is >= \p ps.
  [[nodiscard]] Cycles ps_to_cycles_ceil(TimePs ps) const {
    return (ps + period_ps_ - 1) / period_ps_;
  }

 private:
  std::string name_;
  TimePs period_ps_;
};

}  // namespace fgqos::sim

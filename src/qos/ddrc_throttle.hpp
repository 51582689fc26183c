/// \file ddrc_throttle.hpp
/// \brief Controller-level traffic throttle (Xilinx DDRC-QoS-style).
///
/// Commercial FPGA SoCs expose coarse QoS knobs at the DDR controller:
/// global per-direction command throttles that limit how fast the
/// controller accepts requests, with no notion of which master they came
/// from. This class models that alternative as a SlaveIf decorator
/// inserted between the crossbar and the dram::Controller. It is the
/// "regulation at the wrong place" baseline: it can cap aggregate
/// traffic, but cannot isolate a critical master from an aggressive one —
/// both are slowed equally (EXP11 quantifies this against the paper's
/// per-port regulators).
#pragma once

#include <cstdint>
#include <string>

#include "axi/interconnect.hpp"
#include "qos/window.hpp"
#include "sim/simulator.hpp"

namespace fgqos::qos {

/// Throttle configuration.
struct DdrcThrottleConfig {
  std::string name = "ddrc_throttle";
  /// Aggregate accepted read payload per second (0 = unthrottled).
  double read_bps = 0;
  /// Aggregate accepted write payload per second (0 = unthrottled).
  double write_bps = 0;
  /// Accounting window for the internal credit buckets.
  sim::TimePs window_ps = sim::kPsPerUs;
};

/// The decorator. Wire as:
///   DdrcThrottle thr(sim, cfg, controller, xbar);
///   xbar.set_slave(thr);
/// A window refill or a rate write signals ResponseSink::space_freed() on
/// \p sink (the crossbar); the inner slave signals its own freed space.
class DdrcThrottle final : public axi::SlaveIf {
 public:
  DdrcThrottle(sim::Simulator& sim, DdrcThrottleConfig cfg,
               axi::SlaveIf& inner, axi::ResponseSink& sink);

  [[nodiscard]] const DdrcThrottleConfig& config() const { return cfg_; }

  /// Reprograms the rates (takes effect immediately).
  void set_rates(double read_bps, double write_bps);

  // SlaveIf
  [[nodiscard]] bool can_accept(const axi::LineRequest& line,
                                sim::TimePs now) const override;
  void accept(axi::LineRequest line, sim::TimePs now) override;

 private:
  void on_window();

  sim::Simulator& sim_;
  DdrcThrottleConfig cfg_;
  sim::EventQueue::RecurringId window_event_ = 0;
  axi::SlaveIf* inner_;
  axi::ResponseSink* sink_;
  TokenBucket read_bucket_;
  TokenBucket write_bucket_;
};

}  // namespace fgqos::qos

/// \file forced_poll.hpp
/// \brief Test helpers that hold sleeping components to a per-cycle
///        reference.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "axi/interconnect.hpp"
#include "dram/controller.hpp"
#include "sim/simulator.hpp"
#include "telemetry/attribution.hpp"

namespace fgqos::testing {

/// Turns a component that sleeps and naps into one that ticks every cycle
/// while it has work. Ticks on the target's clock right after it (so it
/// must be constructed after the target) and, whenever the target ticked
/// on this edge and \p busy holds, wakes it for the next edge with
/// wake_as_polled(). From the first tick the target schedules itself, it
/// then ticks on every edge until \p busy turns false: exactly the edges a
/// component that never slept with work would tick. With \p blame it also
/// settles \p blame on every edge, so each waiting line is charged one
/// slice per cycle, to the cell its component classified on that edge.
class ForcedPoll final : public sim::Clocked {
 public:
  ForcedPoll(sim::Clocked& target, telemetry::AttributionEngine* blame,
             std::function<bool()> busy = [] { return true; })
      : sim::Clocked(target.simulator(), target.clock(),
                     "poll." + target.name()),
        target_(target),
        blame_(blame),
        busy_(std::move(busy)) {}

  bool tick(sim::Cycles /*cycle*/) override {
    if (blame_ != nullptr) {
      blame_->settle();
    }
    if (target_.ticks_fired() != seen_ && busy_()) {
      target_.wake_as_polled();
    }
    seen_ = target_.ticks_fired();
    return true;
  }

 private:
  sim::Clocked& target_;
  telemetry::AttributionEngine* blame_;
  std::function<bool()> busy_;
  std::uint64_t seen_ = 0;
};

/// Polls \p xbar on every cycle.
inline std::unique_ptr<ForcedPoll> force_poll(
    axi::Interconnect& xbar, telemetry::AttributionEngine* blame) {
  return std::make_unique<ForcedPoll>(xbar, blame);
}

/// Polls \p ctrl while lines are queued. An empty controller sleeps in
/// every mode, and that is part of the model: it skips the refreshes that
/// fall due while idle (see Controller::do_refresh).
inline std::unique_ptr<ForcedPoll> force_poll(
    dram::Controller& ctrl, telemetry::AttributionEngine* blame) {
  return std::make_unique<ForcedPoll>(ctrl, blame, [&ctrl] {
    return ctrl.read_queue_size() + ctrl.write_queue_size() > 0;
  });
}

/// The cumulative and per-bank totals of an attribution engine and its
/// conservation residual, flattened in a fixed order.
inline std::vector<std::uint64_t> blame_totals(
    const telemetry::AttributionEngine& eng) {
  std::vector<std::uint64_t> out;
  const auto masters = static_cast<axi::MasterId>(eng.master_count());
  for (axi::MasterId v = 0; v < masters; ++v) {
    for (std::size_t c = 0; c < telemetry::kCauseCount; ++c) {
      const auto cause = static_cast<telemetry::Cause>(c);
      for (axi::MasterId a = 0; a < masters; ++a) {
        const auto& cell = eng.total(v, a, cause);
        out.push_back(cell.stall_ps);
        out.push_back(cell.bytes);
      }
      for (std::uint32_t b = 0; b < eng.bank_count(); ++b) {
        const auto& cell = eng.bank_total(v, b, cause);
        out.push_back(cell.stall_ps);
        out.push_back(cell.bytes);
      }
    }
  }
  out.push_back(eng.residual_ps());
  return out;
}

/// Everything an attribution engine recorded, flattened in a fixed order:
/// each window's bounds and cells, then blame_totals(). Equal records mean
/// equal exports.
inline std::vector<std::uint64_t> blame_record(
    const telemetry::AttributionEngine& eng) {
  std::vector<std::uint64_t> out;
  for (const auto& w : eng.windows()) {
    out.push_back(w.start);
    out.push_back(w.end);
    for (const auto& cell : w.cells) {
      out.push_back(cell.stall_ps);
      out.push_back(cell.bytes);
    }
  }
  const std::vector<std::uint64_t> totals = blame_totals(eng);
  out.insert(out.end(), totals.begin(), totals.end());
  return out;
}

}  // namespace fgqos::testing

#include "qos/prem_arbiter.hpp"

#include "util/config_error.hpp"

namespace fgqos::qos {

PremArbiter::PremArbiter(sim::Simulator& sim, PremConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  config_check(!cfg_.schedule.empty(), "PremArbiter: empty schedule");
  config_check(cfg_.slot_ps > 0, "PremArbiter: slot length must be > 0");
  slot_event_ = sim_.make_recurring_event(
      [this](std::uint64_t) { on_slot_boundary(); },
      sim_.profile_tag("qos.prem_arbiter"));
  sim_.schedule_recurring(slot_event_, sim_.now() + cfg_.slot_ps);
}

void PremArbiter::add_slot_listener(SlotChangeFn fn) {
  listeners_.push_back(std::move(fn));
}

void PremArbiter::on_slot_boundary() {
  slot_ = (slot_ + 1) % cfg_.schedule.size();
  ++slots_elapsed_;
  const sim::TimePs now = sim_.now();
  for (const auto& fn : listeners_) {
    fn(owner(), now);
  }
  sim_.schedule_recurring(slot_event_, now + cfg_.slot_ps);
  reopened();  // the owner changed: allow() may turn either way
}

bool PremArbiter::allow(const axi::LineRequest& line, sim::TimePs) const {
  return owner() == kAllMasters || line.txn->master == owner();
}

void PremArbiter::on_grant(const axi::LineRequest&, sim::TimePs) {}

}  // namespace fgqos::qos

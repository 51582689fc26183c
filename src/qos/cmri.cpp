#include "qos/cmri.hpp"

#include <algorithm>

namespace fgqos::qos {

CmriInjector::CmriInjector(PremArbiter& prem, CmriConfig cfg)
    : prem_(prem), cfg_(cfg) {
  prem_.add_slot_listener([this](axi::MasterId, sim::TimePs) {
    std::fill(spent_.begin(), spent_.end(), 0);
    reopened();
  });
}

std::uint64_t CmriInjector::remaining(axi::MasterId m) const {
  const std::uint64_t s = m < spent_.size() ? spent_[m] : 0;
  return s >= cfg_.injection_budget_bytes ? 0
                                          : cfg_.injection_budget_bytes - s;
}

void CmriInjector::set_injection_budget(std::uint64_t bytes) {
  cfg_.injection_budget_bytes = bytes;
  reopened();
}

bool CmriInjector::allow(const axi::LineRequest& line, sim::TimePs) const {
  const axi::MasterId m = line.txn->master;
  if (prem_.owner() == kAllMasters || m == prem_.owner()) {
    return true;
  }
  // Credit semantics: admit while any budget remains (overshoot bounded by
  // one line), so budgets need not be multiples of the line size.
  return remaining(m) > 0;
}

void CmriInjector::on_grant(const axi::LineRequest& line, sim::TimePs) {
  const axi::MasterId m = line.txn->master;
  if (prem_.owner() == kAllMasters || m == prem_.owner()) {
    return;
  }
  if (m >= spent_.size()) {
    spent_.resize(m + 1, 0);
  }
  spent_[m] += line.bytes;
  injected_ += line.bytes;
}

}  // namespace fgqos::qos

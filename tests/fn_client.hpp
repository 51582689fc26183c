/// \file fn_client.hpp
/// \brief Test port client that hands each completion to a callable.
#pragma once

#include <functional>
#include <utility>

#include "axi/port.hpp"

namespace fgqos::testing {

/// A PortClient forwarding each completion of the transactions it issues
/// to \p fn; default-constructed, it drops them.
class FnClient final : public axi::PortClient {
 public:
  FnClient() = default;
  explicit FnClient(std::function<void(const axi::Transaction&)> fn)
      : fn_(std::move(fn)) {}

  void on_complete(const axi::Transaction& txn) override {
    if (fn_) {
      fn_(txn);
    }
  }

 private:
  std::function<void(const axi::Transaction&)> fn_;
};

}  // namespace fgqos::testing

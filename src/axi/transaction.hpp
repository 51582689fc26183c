/// \file transaction.hpp
/// \brief Burst transaction and the line-sized requests it splits into.
#pragma once

#include <cstdint>
#include <functional>

#include "axi/types.hpp"
#include "sim/time.hpp"

namespace fgqos::axi {

/// AXI response code carried back to the issuing master. Ordered by
/// severity so the worst per-line response wins for the whole burst.
enum class Resp : std::uint8_t {
  kOkay = 0,   ///< normal completion
  kSlverr = 1, ///< slave error (the target signalled a fault)
  kDecerr = 2, ///< decode error (no slave claimed the address)
};

/// One AXI burst as issued by a master. The interconnect splits it into
/// line-sized LineRequests for the memory controller; the transaction
/// completes when the last line completes (plus response latency).
struct Transaction {
  TxnId id = 0;
  MasterId master = 0;
  Dir dir = Dir::kRead;
  Addr addr = 0;
  std::uint32_t bytes = 0;        ///< total payload of the burst
  QosValue qos = kQosBestEffort;
  std::uint64_t user = 0;         ///< opaque tag for the issuing client
  Resp resp = Resp::kOkay;        ///< worst per-line response of the burst

  sim::TimePs created = 0;        ///< time the master issued it
  sim::TimePs granted = 0;        ///< time the interconnect first serviced it
  sim::TimePs completed = 0;      ///< time the response reached the master

  // Memory-system lifecycle stamps (telemetry): filled by the DRAM
  // controller as the transaction's lines move through it. 0 = not yet
  // reached (time-0 arrivals are indistinguishable, which is harmless for
  // latency attribution).
  sim::TimePs dram_enqueued = 0;      ///< first line arrived at a controller
  sim::TimePs dram_service_start = 0; ///< first CAS data burst began
  sim::TimePs dram_service_end = 0;   ///< last CAS data burst finished

  std::uint32_t lines_total = 0;  ///< line requests this burst splits into
  std::uint32_t lines_left = 0;   ///< still outstanding in the memory system

  // Interference-attribution conservation ledger (telemetry): the wait
  // time the hooks measured from lifecycle stamps vs. the picoseconds the
  // AttributionEngine actually charged to blame-matrix cells. Equal at
  // completion when the bookkeeping is sound (FGQOS_DEBUG_ASSERT); any
  // difference feeds the telemetry.attribution.residual_ps gauge.
  sim::TimePs attr_measured_ps = 0;
  sim::TimePs attr_charged_ps = 0;

  /// End-to-end latency; valid once completed.
  [[nodiscard]] sim::TimePs latency() const { return completed - created; }
};

/// Completion callback type delivered to the issuing client.
using CompletionFn = std::function<void(const Transaction&)>;

/// Line-granular request as seen by the memory controller.
struct LineRequest {
  Transaction* txn = nullptr;
  Addr addr = 0;
  std::uint32_t bytes = 0;
  bool is_write = false;
  bool last_of_txn = false;
  sim::TimePs enqueued = 0;       ///< arrival time at the controller
};

/// Sink through which the memory controller reports finished lines.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  /// Called exactly once per LineRequest, at data-burst completion time.
  virtual void line_done(const LineRequest& line, sim::TimePs now) = 0;
  /// Called by the slave whenever can_accept() may have turned true (see
  /// SlaveIf).
  virtual void space_freed() {}
};

}  // namespace fgqos::axi

/// \file port.hpp
/// \brief AXI master port: request queue, outstanding limits, QoS hooks.
///
/// A MasterPort is the attachment point for the paper's tightly-coupled QoS
/// blocks: TxnGate implementations (regulators, PREM arbitration) can stall
/// the port's handshake in the same cycle a grant would occur, and
/// TxnObserver implementations (bandwidth monitors) see every issue, grant
/// and completion with exact timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axi/timed_fifo.hpp"
#include "axi/transaction.hpp"
#include "axi/types.hpp"
#include "sim/histogram.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "telemetry/attribution.hpp"

namespace fgqos::axi {

class Interconnect;
class MasterPort;

/// Combinational gate consulted before each line grant. Implementations
/// must keep allow() free of side effects; state updates happen in
/// on_grant(), which is called in the same cycle as the grant (this is the
/// "tightly-coupled" property).
///
/// Reopen contract: allow() turns true only inside calls that end with
/// reopened(), which wakes every port the gate is attached to, and turns
/// false only inside on_grant() or calls that end with reopened() or
/// closed(). The crossbar sleeps through a port a gate blocks and, with
/// attribution on, through a port it admits but the slave refuses; these
/// signals are how it learns that either changed.
class TxnGate {
 public:
  virtual ~TxnGate() = default;
  /// May the next line of this port be granted at \p now?
  [[nodiscard]] virtual bool allow(const LineRequest& line,
                                   sim::TimePs now) const = 0;
  /// A line was granted at \p now; account for it.
  virtual void on_grant(const LineRequest& line, sim::TimePs now) = 0;

 protected:
  /// Tells every gated port that allow() may have turned true.
  void reopened() const;
  /// Tells every gated port that allow() may have turned false outside
  /// on_grant() (attribution reclassifies a waiting head).
  void closed() const;

 private:
  friend class MasterPort;  // add_gate() subscribes the port
  std::vector<MasterPort*> ports_;
};

/// Issuer of transactions on a MasterPort. Each completion goes to the
/// client that issued the transaction, so clients may share a port.
class PortClient {
 public:
  virtual ~PortClient() = default;
  /// \p txn completed. Called after the port's stats and observers saw
  /// it, with its outstanding slot already released, so the client may
  /// issue again from here.
  virtual void on_complete(const Transaction& txn) = 0;
};

/// Passive observer of port activity (monitors, tracers).
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;
  virtual void on_issue(const Transaction& txn, sim::TimePs now) = 0;
  virtual void on_grant(const LineRequest& line, sim::TimePs now) = 0;
  virtual void on_complete(const Transaction& txn, sim::TimePs now) = 0;
};

/// Static configuration of one master port.
struct MasterPortConfig {
  std::string name = "master";
  std::size_t max_outstanding_reads = 8;
  std::size_t max_outstanding_writes = 8;
  std::size_t request_queue_depth = 8;
  /// Peak data rate of the physical port (e.g. 128-bit @ 300 MHz
  /// = 4.8e9). Limits how fast lines can be granted on this port.
  double port_bandwidth_bps = 4.8e9;
  /// Master -> interconnect request path latency.
  sim::TimePs request_latency_ps = 10'000;   // 10 ns
  /// Memory-system completion -> master response path latency.
  sim::TimePs response_latency_ps = 10'000;  // 10 ns
  /// Line size used to split bursts for the memory controller.
  std::uint32_t line_bytes = 64;
  QosValue qos = kQosBestEffort;
  /// Marks the latency-critical port in reports.
  bool critical = false;
};

/// Aggregate statistics of one port.
struct PortStats {
  sim::Counter txns_issued;
  sim::Counter txns_completed;
  sim::Counter lines_granted;
  sim::Counter bytes_granted;
  sim::Counter read_bytes;
  sim::Counter write_bytes;
  sim::Counter issue_rejected;  ///< issue() calls refused (queue/OT full)
  sim::Counter fault_stalls;    ///< transient stalls injected by faults
  sim::Histogram read_latency;  ///< end-to-end read latency, ps
  sim::Histogram write_latency;
};

/// One AXI-like master port attached to an Interconnect. Created via
/// Interconnect::add_master(); not movable (stable identity).
class MasterPort {
 public:
  MasterPort(Interconnect& owner, MasterId id, MasterPortConfig cfg);

  MasterPort(const MasterPort&) = delete;
  MasterPort& operator=(const MasterPort&) = delete;

  [[nodiscard]] MasterId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] const MasterPortConfig& config() const { return cfg_; }

  /// True when a new transaction can be issued right now.
  [[nodiscard]] bool can_issue(Dir dir) const;

  /// Issues a burst on behalf of \p client, which receives its
  /// completion (with \p user in Transaction::user). Returns false (and
  /// counts a rejection) when the request queue or the outstanding limit
  /// is full. \p bytes must be > 0.
  bool issue(PortClient& client, Dir dir, Addr addr, std::uint32_t bytes,
             std::uint64_t user = 0);

  /// Attaches a gate (evaluated in attachment order; all must allow) and
  /// subscribes this port to its reopen signal.
  void add_gate(TxnGate& gate);
  /// Attaches an observer.
  void add_observer(TxnObserver& obs) { observers_.push_back(&obs); }

  [[nodiscard]] const PortStats& stats() const { return stats_; }
  PortStats& stats() { return stats_; }

  // --- Interconnect-facing interface -------------------------------------

  /// Why the head line cannot be granted right now (kNone: it exists, is
  /// visible, passes the port rate limit and all gates).
  enum class BlockReason : std::uint8_t {
    kNone,       ///< grantable
    kEmpty,      ///< no visible request queued
    kRateLimit,  ///< port data path busy (transient, holds a burst lock)
    kGate,       ///< a QoS gate refuses (possibly for a long time)
  };
  [[nodiscard]] BlockReason grant_block_reason(sim::TimePs now) const {
    sim::TimePs ignored = 0;
    return grant_block_reason(now, ignored);
  }

  /// As above; a blocked port also lowers \p retry to the earliest time
  /// its block can lift without it notifying the crossbar: the head
  /// turning visible or the rate limiter freeing up. It leaves \p retry
  /// alone when it will notify (empty queue: issue(); a gate: reopened()).
  [[nodiscard]] BlockReason grant_block_reason(sim::TimePs now,
                                               sim::TimePs& retry) const;

  /// Reopen signal of an attached gate: wakes the crossbar when a request
  /// is queued.
  void gate_reopened();
  /// Close signal of an attached gate: wakes the crossbar when attribution
  /// is on and a request is queued.
  void gate_closed();

  /// The line that would be granted next. Pre: head visible.
  [[nodiscard]] LineRequest peek_line(sim::TimePs now) const;

  /// Commits the grant of peek_line(): updates gates, observers, stats and
  /// the port rate limiter, and advances/pops the head transaction.
  LineRequest commit_grant(sim::TimePs now);

  /// Called (via the interconnect) when the last line of \p txn finished
  /// and the response latency elapsed.
  void complete_txn(Transaction& txn, sim::TimePs now);

  /// Fault seam: holds the port's data path busy for \p duration from now
  /// (extends, never shortens, the rate-limiter deadline), modelling a
  /// transient physical-port stall. Grants resume automatically.
  void inject_stall(sim::TimePs duration);

  /// Wires the interference-attribution engine (nullptr disables; the
  /// default). Must be set before the first issue() so the head-of-line
  /// wait accounting starts from a clean queue.
  void set_attribution(telemetry::AttributionEngine* engine);

  /// Head-of-line wait bookkeeping, charged by the interconnect's
  /// attribution pass on each crossbar tick.
  [[nodiscard]] telemetry::WaitState& attr_wait() { return attr_wait_; }
  /// The transaction currently waiting at the head. Pre: head visible.
  [[nodiscard]] Transaction* attr_head(sim::TimePs now) const {
    return queue_.front(now);
  }

 private:
  [[nodiscard]] std::uint32_t head_line_bytes(const Transaction& txn) const;

  Interconnect& owner_;
  MasterId id_;
  MasterPortConfig cfg_;
  TimedFifo<Transaction*> queue_;
  std::vector<TxnGate*> gates_;
  std::vector<TxnObserver*> observers_;
  std::size_t out_reads_ = 0;
  std::size_t out_writes_ = 0;
  std::uint32_t head_offset_ = 0;    ///< bytes of head txn already granted
  sim::TimePs data_free_at_ = 0;     ///< port rate limiter
  double ps_per_byte_;
  PortStats stats_;
  telemetry::AttributionEngine* attr_ = nullptr;
  telemetry::WaitState attr_wait_;   ///< current head's head-of-line wait
};

}  // namespace fgqos::axi

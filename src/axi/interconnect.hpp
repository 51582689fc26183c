/// \file interconnect.hpp
/// \brief Crossbar connecting master ports to the memory controller.
///
/// Each cycle of its clock domain the interconnect arbitrates among master
/// ports with grantable lines and forwards up to issue_width lines to the
/// downstream slave (the DRAM controller). It also implements the response
/// path: when the controller reports the last line of a burst done, the
/// interconnect delivers the completion to the issuing port after that
/// port's response latency.
///
/// The crossbar sleeps through cycles in which no port can be granted: it
/// wakes itself for the first head turning visible or port rate limiter
/// freeing up, and relies on issue(), the gates (TxnGate::reopened) and
/// the slave (ResponseSink::space_freed) for every other change. It keeps
/// ticking only while a kTransaction burst holds the fabric.
/// Attribution does not keep it awake: a head's wait is charged in spans,
/// one per blame cell, and the crossbar only adds the wakes at which a
/// head's cell can change without a grant or a signal (see
/// attribution_pass()) plus the window-boundary edges.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "axi/arbiter.hpp"
#include "axi/port.hpp"
#include "axi/transaction.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"

namespace fgqos::axi {

/// Downstream request consumer (implemented by dram::Controller).
///
/// Space contract: can_accept() turns true only inside calls that then
/// invoke ResponseSink::space_freed() on the crossbar, which sleeps
/// through a refused line until then.
class SlaveIf {
 public:
  virtual ~SlaveIf() = default;
  /// May a line be enqueued this cycle? Must be side-effect free.
  [[nodiscard]] virtual bool can_accept(const LineRequest& line,
                                        sim::TimePs now) const = 0;
  /// Enqueues the line. Pre: can_accept() returned true this cycle.
  virtual void accept(LineRequest line, sim::TimePs now) = 0;
};

/// At what granularity the crossbar switches between masters.
enum class ArbGranularity : std::uint8_t {
  /// Re-arbitrate every line: fine interleaving (ideal crossbar).
  kLine,
  /// Stick with a master until its whole burst has been forwarded; while
  /// the burst is head-of-line blocked at the slave, other masters wait
  /// (store-and-forward bridge behaviour — long DMA bursts then delay the
  /// CPU considerably more, an interference amplifier real fabrics show).
  kTransaction,
};

/// Interconnect configuration.
struct InterconnectConfig {
  std::string name = "xbar";
  /// Lines forwarded per interconnect cycle (crossbar issue width).
  std::size_t issue_width = 2;
  ArbGranularity granularity = ArbGranularity::kLine;
};

/// The crossbar. Owns its master ports; the slave is wired externally.
class Interconnect final : public sim::Clocked, public ResponseSink {
 public:
  Interconnect(sim::Simulator& sim, const sim::ClockDomain& clk,
               InterconnectConfig cfg);

  /// Creates a new master port. Must be called before the simulation runs.
  MasterPort& add_master(MasterPortConfig cfg);

  /// Wires the downstream slave (exactly one; required before running).
  void set_slave(SlaveIf& slave) { slave_ = &slave; }

  /// Replaces the arbitration policy (default: round robin).
  void set_arbiter(std::unique_ptr<Arbiter> arb);

  /// Wires the interference-attribution engine into the crossbar and all
  /// its ports (nullptr disables; the default). When enabled, every
  /// crossbar tick classifies why each waiting head could not be granted
  /// and blames the responsible master; the crossbar keeps sleeping
  /// between ticks as it does without attribution. Detaching (nullptr)
  /// also withdraws the crossbar's settler from the previous engine.
  void set_attribution(telemetry::AttributionEngine* engine);

  /// Fault seam on the response path: consulted once per finished line in
  /// line_done(); a non-kOkay verdict corrupts that line's response and
  /// the transaction carries the worst per-line response back to the
  /// master. Empty function (the default) means a perfect memory path.
  using ResponseFaultFn = std::function<Resp(const LineRequest&, sim::TimePs)>;
  void set_response_fault(ResponseFaultFn fn) {
    response_fault_ = std::move(fn);
  }

  [[nodiscard]] std::size_t master_count() const { return ports_.size(); }
  [[nodiscard]] MasterPort& master(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const MasterPort& master(std::size_t i) const {
    return *ports_.at(i);
  }
  [[nodiscard]] const InterconnectConfig& config() const { return cfg_; }

  /// Total bytes granted across all ports.
  [[nodiscard]] std::uint64_t total_bytes_granted() const;

  // --- internal wiring ----------------------------------------------------

  /// Called by ports when new work arrives; wakes the crossbar.
  void notify_work(sim::TimePs ready_at);

  /// Next transaction id (unique per interconnect).
  TxnId next_txn_id() { return ++txn_seq_; }

  /// Arena for in-flight transactions: ports create() on issue and
  /// destroy() on completion, so the per-burst hot path never touches the
  /// global allocator.
  [[nodiscard]] sim::ObjectPool<Transaction>& txn_pool() { return txn_pool_; }

  bool tick(sim::Cycles cycle) override;
  void line_done(const LineRequest& line, sim::TimePs now) override;
  /// Wakes the crossbar if it sleeps on a line the slave refused.
  void space_freed() override;

 private:
  /// Whether port \p p, in a pace gap ending at \p gap_end, counts as
  /// refused rather than lowering \p retry: its line is one the slave
  /// refuses, attribution is off, and the gap ends before \p retry.
  [[nodiscard]] bool refused_after_gap(const MasterPort& p, sim::TimePs now,
                                       sim::TimePs gap_end,
                                       sim::TimePs retry) const;
  /// Blame pass: classifies every waiting head and hands the cell to
  /// AttributionEngine::charge_since(). \p first_granted is the first
  /// master granted this tick (-1 when none) — the one that actually beat
  /// the waiters to the fabric. Returns the earliest time a cell can
  /// change without waking the crossbar (\p now: next cycle), or a window
  /// boundary needs a charge; kTimeNever when no head waits.
  sim::TimePs attribution_pass(sim::Cycles cycle, sim::TimePs now,
                               int first_granted);
  /// AttributionEngine settler: carries every started head-of-line wait
  /// to the last edge a per-cycle crossbar would have ticked by now.
  void settle_attribution();

  InterconnectConfig cfg_;
  std::vector<std::unique_ptr<MasterPort>> ports_;
  std::unique_ptr<Arbiter> arbiter_;
  sim::ObjectPool<Transaction> txn_pool_;
  std::uint32_t prof_tag_deliver_ = 0;  ///< host-profiler tag, axi.deliver
  SlaveIf* slave_ = nullptr;
  /// Asleep with a line the slave refused, grantable now or once its
  /// port's pace gap ends: space_freed() wakes.
  bool awaiting_space_ = false;
  TxnId txn_seq_ = 0;
  std::vector<bool> eligible_;  ///< scratch, sized to master count
  int locked_master_ = -1;      ///< kTransaction: burst in progress
  telemetry::AttributionEngine* attr_ = nullptr;
  telemetry::AttributionEngine::EdgeCache edge_cache_;
  ResponseFaultFn response_fault_;
  /// Master whose line most recently entered the slave; the default blame
  /// target when a grantable head stalls with no grant this cycle.
  MasterId last_accepted_master_ = telemetry::kNoOwner;
};

}  // namespace fgqos::axi

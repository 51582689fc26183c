/// \file traffic_gen.hpp
/// \brief DMA-style accelerator traffic generators.
///
/// Models the memory behaviour of FPGA accelerators: large bursts, high
/// outstanding counts, saturating or paced issue, optional phased on/off
/// activity (for reclamation experiments) — the same synthetic traffic
/// classes the paper's group uses to characterise worst-case DRAM
/// interference on FPGA HeSoCs.
#pragma once

#include <cstdint>
#include <string>

#include "axi/interconnect.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/trace.hpp"

namespace fgqos::wl {

/// Address pattern of the generator.
enum class Pattern : std::uint8_t {
  kSeqRead,
  kSeqWrite,
  kCopy,        ///< alternating read/write between two halves
  kRandomRead,
  kRandomWrite,
  kStrided,     ///< reads at a fixed stride
};

/// Returns a short label ("seq_rd", ...) for reports.
const char* pattern_name(Pattern p);

/// Generator configuration.
struct TrafficGenConfig {
  std::string name = "tg";
  Pattern pattern = Pattern::kSeqRead;
  axi::Addr base = 0x4000'0000;
  std::uint64_t footprint_bytes = 16ull << 20;
  std::uint32_t burst_bytes = 1024;       ///< per transaction
  std::uint64_t stride_bytes = 4096;      ///< for kStrided
  std::size_t max_outstanding = 4;        ///< self-imposed cap
  /// Self-pacing target rate in bytes/second (0 = saturate the port).
  double target_bps = 0.0;
  /// Phased activity: active for active_ps then idle for idle_ps,
  /// repeating. Both zero = always active.
  sim::TimePs active_ps = 0;
  sim::TimePs idle_ps = 0;
  /// Stop after this many issued bytes (0 = unlimited).
  std::uint64_t max_bytes = 0;
  std::uint64_t seed = 99;
  /// Error-response hardening: a transaction completing with a non-OKAY
  /// AXI response is re-issued after retry_backoff_ps * 2^attempt, up to
  /// max_retries attempts (0 disables retries; errored bytes are then
  /// simply not counted as completed).
  std::uint32_t max_retries = 3;
  sim::TimePs retry_backoff_ps = 100'000;  // 100 ns base backoff
};

/// Generator statistics.
struct TrafficGenStats {
  std::uint64_t issued_bytes = 0;
  std::uint64_t completed_bytes = 0;
  std::uint64_t transactions = 0;
  sim::TimePs first_issue_at = sim::kTimeNever;
  sim::TimePs last_completion_at = 0;
  std::uint64_t error_completions = 0;   ///< non-OKAY responses observed
  std::uint64_t retries_issued = 0;      ///< error retries that re-issued
  std::uint64_t retries_abandoned = 0;   ///< retry budget/queue exhausted
};

/// The generator; drives one master port.
class TrafficGen final : public sim::Clocked {
 public:
  /// \param port must outlive the generator; its completion handler is
  ///        taken over by this object.
  TrafficGen(sim::Simulator& sim, const sim::ClockDomain& clk,
             TrafficGenConfig cfg, axi::MasterPort& port);

  [[nodiscard]] const TrafficGenConfig& config() const { return cfg_; }
  [[nodiscard]] const TrafficGenStats& stats() const { return stats_; }
  [[nodiscard]] axi::MasterPort& port() { return *port_; }
  /// True when max_bytes was reached and everything completed.
  [[nodiscard]] bool drained() const;

  /// Mean achieved bandwidth over [since, now] based on completions.
  [[nodiscard]] double achieved_bps(sim::TimePs since_ps = 0) const;

  /// Attaches the Chrome-trace sink (nullptr detaches): the in-flight
  /// transaction count becomes a counter series on a track named after
  /// this generator.
  void set_trace(telemetry::TraceWriter* writer);

  bool tick(sim::Cycles cycle) override;

 private:
  struct NextOp {
    axi::Dir dir;
    axi::Addr addr;
  };
  NextOp make_op();
  [[nodiscard]] bool in_active_phase(sim::TimePs now,
                                     sim::TimePs* resume_at) const;

  TrafficGenConfig cfg_;
  axi::MasterPort* port_;
  sim::Xoshiro256 rng_;
  TrafficGenStats stats_;
  std::uint32_t prof_tag_ = 0;  ///< host-profiler tag, workload.traffic_gen
  std::uint64_t cursor_ = 0;
  bool copy_phase_write_ = false;
  std::size_t outstanding_ = 0;
  sim::TimePs next_paced_issue_ = 0;
  telemetry::TraceWriter* trace_ = nullptr;
  telemetry::TrackId track_;
};

}  // namespace fgqos::wl

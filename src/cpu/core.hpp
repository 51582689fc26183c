/// \file core.hpp
/// \brief In-order CPU cores with private L1s behind a shared L2 and one
///        AXI master port (the application-processor cluster of the SoC).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "axi/interconnect.hpp"
#include "cpu/kernel.hpp"
#include "mem/cache.hpp"
#include "mem/mshr.hpp"
#include "sim/histogram.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace fgqos::cpu {

class CpuCluster;

/// Per-core configuration.
struct CoreConfig {
  std::string name = "core";
  mem::CacheConfig l1{"l1", 32 * 1024, 64, 4};
  std::uint32_t l1_hit_cycles = 2;
  std::uint32_t l2_hit_cycles = 14;
  /// 0 = run forever; otherwise the core halts after this many kernel
  /// iterations.
  std::uint64_t max_iterations = 0;
  std::uint64_t rng_seed = 1;
};

/// Per-core statistics.
struct CoreStats {
  std::uint64_t steps_done = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t iterations = 0;
  std::uint64_t stall_resource_cycles = 0;  ///< cycles blocked on MSHR/port
  sim::Histogram iteration_ps;              ///< per-iteration wall time
  sim::TimePs finished_at = sim::kTimeNever;
};

/// One in-order core executing a Kernel. A step's compute phase costs no
/// ticks: the tick that starts it (a new step, or an L2 hit) stores the
/// edge the core resumes on and sleeps to it, and a tick woken before
/// that edge sleeps again. Busy ticks (Clocked::busy_ticks()) are those
/// that begin a step, run a task or finish a step; the others retry a
/// task stalled on a resource (CoreStats::stall_resource_cycles).
class CpuCore final : public sim::Clocked {
 public:
  CpuCore(CpuCluster& cluster, CoreConfig cfg, std::unique_ptr<Kernel> kernel);

  [[nodiscard]] const CoreConfig& config() const { return cfg_; }
  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] const mem::Cache& l1() const { return l1_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] Kernel& kernel() { return *kernel_; }

  /// Replaces the kernel and restarts execution (counters keep running).
  void set_kernel(std::unique_ptr<Kernel> kernel);

  /// Restarts iteration counting (e.g. after a warm-up phase): clears
  /// iteration stats, keeps the caches warm.
  void restart_measurement(std::uint64_t max_iterations);

  bool tick(sim::Cycles cycle) override;

  /// Called by the cluster when a line this core blocks on has arrived.
  void on_line_filled(axi::Addr line_addr);

 private:
  enum class State : std::uint8_t {
    kNeedStep,   ///< fetch the next kernel step
    kTasks,      ///< issuing L2/memory tasks of the current step
    kWaitFill,   ///< blocked on a line fill
    kFinished,
  };
  struct Task {
    axi::Addr line_addr = 0;
    bool is_victim_wb = false;  ///< dirty L1 victim heading to L2/memory
    bool is_write = false;      ///< demand direction (dirty-fill for L2)
    bool blocking = false;      ///< wait for fill completion
  };

  void begin_step(const KernelStep& step);
  void finish_step();
  /// Runs the next task; false when it stalled on a resource.
  bool process_task();
  void push_task(const Task& t) { tasks_[task_end_++] = t; }

  CpuCluster& cluster_;
  CoreConfig cfg_;
  std::unique_ptr<Kernel> kernel_;
  sim::Xoshiro256 rng_;
  mem::Cache l1_;
  CoreStats stats_;

  State state_ = State::kNeedStep;
  /// Compute cycles the current tick started; the end of tick() turns
  /// them into resume_at_.
  std::uint32_t compute_left_ = 0;
  /// Edge the current compute phase ends on; the core does nothing
  /// before it.
  sim::TimePs resume_at_ = 0;
  /// The step's L2-side tasks, in order: a dirty L1 victim's writeback,
  /// then the demand access. tasks_[next_task_, task_end_) are pending.
  std::array<Task, 2> tasks_{};
  std::uint8_t next_task_ = 0;
  std::uint8_t task_end_ = 0;
  bool step_ends_iteration_ = false;
  axi::Addr wait_line_ = 0;
  bool finished_ = false;
  sim::TimePs iteration_start_ = 0;
  bool iteration_open_ = false;
};

/// Cluster-level configuration.
struct ClusterConfig {
  std::string name = "apu";
  mem::CacheConfig l2{"l2", 1024 * 1024, 64, 16};
  std::size_t mshr_entries = 16;
  std::size_t writeback_queue = 16;
  /// Next-line prefetch degree on L2 demand misses (0 = off). Prefetches
  /// use spare MSHRs/port slots and never block a demand access.
  std::uint32_t prefetch_degree = 0;
};

/// The cluster: shared L2, shared MSHRs, one AXI master port, a writeback
/// pump, and any number of cores.
class CpuCluster final : public sim::Clocked, axi::PortClient {
 public:
  /// \param port the cluster's AXI master port (created by the caller on
  ///        the interconnect; must outlive the cluster).
  CpuCluster(sim::Simulator& sim, const sim::ClockDomain& clk,
             ClusterConfig cfg, axi::MasterPort& port);

  /// Adds a core executing \p kernel. Returns a stable reference.
  CpuCore& add_core(CoreConfig cfg, std::unique_ptr<Kernel> kernel);

  [[nodiscard]] std::size_t core_count() const { return cores_.size(); }
  [[nodiscard]] CpuCore& core(std::size_t i) { return *cores_.at(i); }
  [[nodiscard]] const mem::Cache& l2() const { return l2_; }
  [[nodiscard]] axi::MasterPort& port() { return *port_; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] const mem::MshrFile& mshr() const { return mshr_; }
  /// Prefetches issued so far (only counts lines actually fetched).
  [[nodiscard]] std::uint64_t prefetches_issued() const {
    return prefetches_issued_;
  }

  /// True when every core with a bounded iteration budget has halted.
  [[nodiscard]] bool all_finished() const;

  // --- core-facing interface ----------------------------------------------

  /// Outcome of an L2-side access attempt.
  enum class L2Result : std::uint8_t {
    kHit,    ///< serviced by the L2 (cost: l2_hit_cycles)
    kMiss,   ///< memory read issued or merged; completion will follow
    kStall,  ///< out of MSHRs / port slots / writeback space; retry
  };
  L2Result l2_access(axi::Addr line_addr, bool is_write);

  /// Retires a dirty L1 victim: marks the L2 copy dirty on hit, otherwise
  /// sends the line straight to the memory writeback queue (no allocate).
  /// Returns false when the writeback queue is full (retry).
  bool writeback_victim(axi::Addr line_addr);

  /// Queues a line writeback straight to memory (L1 victim that missed L2
  /// or dirty L2 victim). False when the queue is full.
  bool enqueue_writeback(axi::Addr line_addr);

  /// Registers \p core to be woken when \p line_addr arrives.
  void wait_on(axi::Addr line_addr, CpuCore& core);

  bool tick(sim::Cycles cycle) override;

 private:
  void on_complete(const axi::Transaction& txn) override;
  void issue_prefetches(axi::Addr demand_line);

  std::uint64_t prefetches_issued_ = 0;
  ClusterConfig cfg_;
  axi::MasterPort* port_;
  mem::Cache l2_;
  mem::MshrFile mshr_;
  std::deque<axi::Addr> writeback_q_;
  /// Cores blocked on a line fill, in the order they blocked. A core
  /// waits on one line at a time, so this holds at most one entry per
  /// core.
  std::vector<std::pair<axi::Addr, CpuCore*>> waiters_;
  std::vector<std::unique_ptr<CpuCore>> cores_;
};

}  // namespace fgqos::cpu

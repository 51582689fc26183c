#include "cpu/core.hpp"

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::cpu {

// ---------------------------------------------------------------------------
// CpuCore
// ---------------------------------------------------------------------------

CpuCore::CpuCore(CpuCluster& cluster, CoreConfig cfg,
                 std::unique_ptr<Kernel> kernel)
    : sim::Clocked(cluster.simulator(), cluster.clock(), cfg.name),
      cluster_(cluster),
      cfg_(std::move(cfg)),
      kernel_(std::move(kernel)),
      rng_(cfg_.rng_seed),
      l1_(cfg_.l1) {
  config_check(kernel_ != nullptr, "CpuCore: kernel required");
}

void CpuCore::set_kernel(std::unique_ptr<Kernel> kernel) {
  config_check(kernel != nullptr, "CpuCore: kernel required");
  kernel_ = std::move(kernel);
  state_ = State::kNeedStep;
  tasks_.clear();
  compute_left_ = 0;
  finished_ = false;
  iteration_open_ = false;
  wake();
}

void CpuCore::restart_measurement(std::uint64_t max_iterations) {
  cfg_.max_iterations = max_iterations;
  stats_.iterations = 0;
  stats_.iteration_ps.reset();
  stats_.finished_at = sim::kTimeNever;
  finished_ = false;
  iteration_open_ = false;
  if (state_ == State::kFinished) {
    state_ = State::kNeedStep;
  }
  wake();
}

void CpuCore::begin_step(const KernelStep& step) {
  if (!iteration_open_) {
    iteration_open_ = true;
    iteration_start_ = simulator().now();
  }
  compute_left_ = step.compute_cycles;
  step_ends_iteration_ = step.end_of_iteration;
  tasks_.clear();
  if (step.op.has_value()) {
    const MemOp& op = *step.op;
    if (op.is_write) {
      ++stats_.stores;
    } else {
      ++stats_.loads;
    }
    const axi::Addr line_mask = ~static_cast<axi::Addr>(cfg_.l1.line_bytes - 1);
    const axi::Addr line = op.addr & line_mask;
    const mem::CacheAccessResult l1r = l1_.access(op.addr, op.is_write);
    if (l1r.hit) {
      compute_left_ += cfg_.l1_hit_cycles;
    } else {
      if (l1r.writeback_addr.has_value()) {
        tasks_.push_back(Task{*l1r.writeback_addr, true, true, false});
      }
      // Blocking semantics apply to loads; stores retire through the
      // write buffer without stalling the core.
      tasks_.push_back(Task{line, false, op.is_write,
                            op.blocking && !op.is_write});
    }
  }
  state_ = State::kTasks;
}

void CpuCore::finish_step() {
  ++stats_.steps_done;
  if (step_ends_iteration_) {
    ++stats_.iterations;
    stats_.iteration_ps.record(simulator().now() - iteration_start_);
    iteration_open_ = false;
    if (cfg_.max_iterations != 0 && stats_.iterations >= cfg_.max_iterations) {
      finished_ = true;
      stats_.finished_at = simulator().now();
      state_ = State::kFinished;
      return;
    }
  }
  state_ = State::kNeedStep;
}

bool CpuCore::process_task(sim::TimePs /*now*/) {
  FGQOS_ASSERT(!tasks_.empty(), "process_task: no task");
  Task& t = tasks_.front();
  if (t.is_victim_wb) {
    if (!cluster_.writeback_victim(t.line_addr)) {
      ++stats_.stall_resource_cycles;
      return false;
    }
    tasks_.pop_front();
    return true;
  }
  // Demand access task.
  const auto r = cluster_.l2_access(t.line_addr, t.is_write);
  switch (r) {
    case CpuCluster::L2Result::kHit:
      compute_left_ += cfg_.l2_hit_cycles;
      tasks_.pop_front();
      return true;
    case CpuCluster::L2Result::kMiss:
      if (t.blocking) {
        wait_line_ = t.line_addr;
        cluster_.wait_on(t.line_addr, *this);
        state_ = State::kWaitFill;
      }
      tasks_.pop_front();
      return true;
    case CpuCluster::L2Result::kStall:
      ++stats_.stall_resource_cycles;
      return false;
  }
  return false;
}

bool CpuCore::tick(sim::Cycles /*cycle*/) {
  const sim::TimePs now = simulator().now();
  if (state_ == State::kFinished) {
    return false;
  }
  if (compute_left_ > 0) {
    // Fast-forward the whole compute phase in one wake-up.
    const sim::TimePs resume = now + compute_left_ * clock().period_ps();
    compute_left_ = 0;
    wake_at(resume);
    return false;
  }
  switch (state_) {
    case State::kNeedStep: {
      const KernelStep step = kernel_->next(rng_);
      begin_step(step);
      // Compute phase (if any) runs before the memory op issues.
      return true;
    }
    case State::kTasks: {
      if (tasks_.empty()) {
        finish_step();
        return state_ != State::kFinished;
      }
      process_task(now);
      if (state_ == State::kWaitFill) {
        return false;  // sleep until on_line_filled
      }
      return true;
    }
    case State::kWaitFill:
      // Spurious tick while blocked; stay asleep.
      return false;
    case State::kFinished:
      return false;
  }
  return false;
}

void CpuCore::on_line_filled(axi::Addr line_addr) {
  if (state_ != State::kWaitFill || line_addr != wait_line_) {
    return;
  }
  state_ = State::kTasks;
  wake();
}

// ---------------------------------------------------------------------------
// CpuCluster
// ---------------------------------------------------------------------------

CpuCluster::CpuCluster(sim::Simulator& sim, const sim::ClockDomain& clk,
                       ClusterConfig cfg, axi::MasterPort& port)
    : sim::Clocked(sim, clk, cfg.name),
      cfg_(std::move(cfg)),
      port_(&port),
      l2_(cfg_.l2),
      mshr_(cfg_.mshr_entries) {
  config_check(cfg_.writeback_queue > 0,
               "CpuCluster: writeback_queue must be > 0");
}

CpuCore& CpuCluster::add_core(CoreConfig cfg, std::unique_ptr<Kernel> kernel) {
  cores_.push_back(
      std::make_unique<CpuCore>(*this, std::move(cfg), std::move(kernel)));
  return *cores_.back();
}

bool CpuCluster::all_finished() const {
  bool any_bounded = false;
  for (const auto& c : cores_) {
    if (c->config().max_iterations != 0) {
      any_bounded = true;
      if (!c->finished()) {
        return false;
      }
    }
  }
  return any_bounded;
}

CpuCluster::L2Result CpuCluster::l2_access(axi::Addr line_addr,
                                           bool is_write) {
  // A line already being fetched: merge into the outstanding miss.
  if (mshr_.present(line_addr)) {
    mshr_.allocate(line_addr);
    return L2Result::kMiss;
  }
  if (l2_.probe(line_addr)) {
    l2_.access(line_addr, is_write);
    return L2Result::kHit;
  }
  // Miss: reserve resources before mutating any state.
  if (mshr_.full() || !port_->can_issue(axi::Dir::kRead) ||
      writeback_q_.size() >= cfg_.writeback_queue) {
    return L2Result::kStall;
  }
  const mem::CacheAccessResult r = l2_.access(line_addr, is_write);
  FGQOS_ASSERT(!r.hit, "probe said miss but access hit");
  if (r.writeback_addr.has_value()) {
    const bool ok = enqueue_writeback(*r.writeback_addr);
    FGQOS_ASSERT(ok, "writeback queue overflow after reservation");
  }
  mshr_.allocate(line_addr);
  const bool issued = port_->issue(*this, axi::Dir::kRead, line_addr,
                                   cfg_.l2.line_bytes, /*user=*/line_addr);
  FGQOS_ASSERT(issued, "port rejected read after can_issue check");
  if (cfg_.prefetch_degree > 0) {
    issue_prefetches(line_addr);
  }
  return L2Result::kMiss;
}

void CpuCluster::issue_prefetches(axi::Addr demand_line) {
  // Next-line prefetcher: fetch the following N lines, best-effort — stop
  // at the first resource limit so demand traffic always has priority.
  for (std::uint32_t k = 1; k <= cfg_.prefetch_degree; ++k) {
    const axi::Addr line =
        demand_line + static_cast<axi::Addr>(k) * cfg_.l2.line_bytes;
    if (mshr_.present(line) || l2_.probe(line)) {
      continue;
    }
    if (mshr_.full() || !port_->can_issue(axi::Dir::kRead) ||
        writeback_q_.size() >= cfg_.writeback_queue) {
      return;
    }
    const mem::CacheAccessResult r = l2_.access(line, /*is_write=*/false);
    FGQOS_ASSERT(!r.hit, "prefetch probe said miss but access hit");
    if (r.writeback_addr.has_value()) {
      const bool ok = enqueue_writeback(*r.writeback_addr);
      FGQOS_ASSERT(ok, "writeback queue overflow after reservation");
    }
    mshr_.allocate(line);
    const bool ok =
        port_->issue(*this, axi::Dir::kRead, line, cfg_.l2.line_bytes, line);
    FGQOS_ASSERT(ok, "port rejected prefetch after can_issue check");
    ++prefetches_issued_;
  }
}

bool CpuCluster::writeback_victim(axi::Addr line_addr) {
  if (l2_.probe(line_addr)) {
    l2_.access(line_addr, true);  // mark dirty; retires on L2 eviction
    return true;
  }
  return enqueue_writeback(line_addr);
}

bool CpuCluster::enqueue_writeback(axi::Addr line_addr) {
  if (writeback_q_.size() >= cfg_.writeback_queue) {
    return false;
  }
  writeback_q_.push_back(line_addr);
  wake();
  return true;
}

void CpuCluster::wait_on(axi::Addr line_addr, CpuCore& core) {
  waiters_[line_addr].push_back(&core);
}

bool CpuCluster::tick(sim::Cycles /*cycle*/) {
  // Writeback pump: drain one line per cycle when the port has room.
  if (writeback_q_.empty()) {
    return false;
  }
  if (port_->can_issue(axi::Dir::kWrite)) {
    const axi::Addr line = writeback_q_.front();
    writeback_q_.pop_front();
    const bool issued =
        port_->issue(*this, axi::Dir::kWrite, line, cfg_.l2.line_bytes);
    FGQOS_ASSERT(issued, "port rejected write after can_issue check");
  }
  return !writeback_q_.empty();
}

void CpuCluster::on_complete(const axi::Transaction& txn) {
  if (txn.dir == axi::Dir::kWrite) {
    return;  // writeback retired; nothing waits on it
  }
  const axi::Addr line = txn.addr;
  mshr_.complete(line);
  auto it = waiters_.find(line);
  if (it == waiters_.end()) {
    return;
  }
  // Move out first: on_line_filled may wake cores that immediately issue
  // new accesses and call wait_on again.
  std::vector<CpuCore*> ws = std::move(it->second);
  waiters_.erase(it);
  for (CpuCore* c : ws) {
    c->on_line_filled(line);
  }
}

}  // namespace fgqos::cpu

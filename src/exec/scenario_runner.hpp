/// \file scenario_runner.hpp
/// \brief Thread-pool scenario-execution engine with deterministic merge.
///
/// The ScenarioRunner fans a batch of independent simulation points out
/// over worker threads and merges the outcomes in submission order. The
/// determinism contract: a job may depend only on its JobContext (index
/// and derived seed), each job builds its own Soc (and therefore its own
/// telemetry Hub and sinks), and results land in the slot of their
/// submission index — so for a fixed base seed the merged outcome of a
/// batch is bit-identical for 1 worker and N workers.
///
/// The runner profiles itself into its own MetricsRegistry under `exec.*`
/// (jobs completed, per-job queue wait and runtime, worker utilisation,
/// wall-clock speedup). These are host wall-clock numbers and are kept
/// out of every job's simulation metrics on purpose: simulation snapshots
/// stay reproducible, the runner's registry is where the nondeterminism
/// lives.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "exec/job.hpp"
#include "telemetry/metrics.hpp"

namespace fgqos::exec {

/// Execution configuration for a runner.
struct ExecConfig {
  /// Worker threads: 1 = serial (run on the calling thread, the default),
  /// 0 = one per hardware thread, N = exactly N.
  std::size_t jobs = 1;
  /// Base seed from which every job's seed is derived (derive_seed).
  std::uint64_t base_seed = 1;
};

/// Terminal state of one submitted job.
enum class JobStatus : std::uint8_t {
  kOk = 0,
  kFailed,   ///< the job threw
  kSkipped,  ///< never claimed (stop requested before it started)
};

/// Outcome of one submitted job. Every job runs once: a job fails on a
/// deterministic error, so running it again could not rescue it.
struct JobOutcome {
  JobStatus status = JobStatus::kSkipped;
  /// what() of the failure.
  std::string error;
  /// The failure in throwable form (null for kOk/kSkipped).
  std::exception_ptr exception;
};

/// Everything run_report() learned about a batch: one outcome per
/// submission index, always fully populated — partial results survive
/// failures and interrupts.
struct RunReport {
  std::vector<JobOutcome> jobs;

  [[nodiscard]] bool all_ok() const;
  /// Submission indices that failed (skipped jobs are listed by
  /// describe() but are not failures).
  [[nodiscard]] std::vector<std::size_t> failed_indices() const;
  /// One-line human summary naming every non-ok index, e.g.
  /// "8 jobs: 5 ok, 2 failed (2, 6), 1 skipped (7)".
  [[nodiscard]] std::string describe() const;
};

/// Resolves a requested worker count: 0 becomes the hardware concurrency
/// (at least 1), anything else is returned unchanged (minimum 1).
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested);

/// Reads the FGQOS_JOBS environment variable (same semantics as --jobs:
/// 0 = hardware concurrency); returns \p fallback when unset or empty.
/// Anything but a non-negative integer throws ConfigError.
[[nodiscard]] std::size_t jobs_from_env(std::size_t fallback = 1);

/// The engine.
class ScenarioRunner {
 public:
  /// Type-erased job: receives its context, returns nothing. Typed
  /// fan-out (map) writes results into pre-sized slots on top of this.
  using JobFn = std::function<void(const JobContext&)>;

  explicit ScenarioRunner(ExecConfig cfg);

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Resolved worker count (>= 1).
  [[nodiscard]] std::size_t worker_count() const { return workers_; }
  [[nodiscard]] std::uint64_t base_seed() const { return cfg_.base_seed; }

  /// Runs every job in \p batch once, blocking until all complete (or
  /// are skipped after request_stop()). Jobs are claimed in submission
  /// order; with workers > 1 they run concurrently on pool threads that
  /// are joined before this returns. Never throws for job failures — the
  /// returned report carries every outcome, so partial results remain
  /// usable.
  RunReport run_report(std::vector<JobFn> batch);

  /// Strict wrapper over run_report(): if any job did not finish kOk,
  /// rethrows the stored exception of the lowest non-ok submission index
  /// (or throws ConfigError naming the index of a skipped job).
  void run(std::vector<JobFn> batch);

  /// Asks the runner to wind down: running jobs finish, unclaimed jobs are
  /// skipped. Safe to call from a signal handler (a single lock-free
  /// atomic store) and from any thread; sticky across run_report() calls
  /// until reset_stop().
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }
  void reset_stop() { stop_.store(false, std::memory_order_relaxed); }

  /// Typed fan-out: invokes fn(ctx) for n jobs and returns the results
  /// in submission order. R must be default-constructible.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) {
    using R = std::decay_t<std::invoke_result_t<Fn&, const JobContext&>>;
    static_assert(std::is_default_constructible_v<R>,
                  "map() results are merged into a pre-sized vector");
    std::vector<R> out(n);
    std::vector<JobFn> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(
          [&out, &fn](const JobContext& ctx) { out[ctx.index] = fn(ctx); });
    }
    run(std::move(batch));
    return out;
  }

  /// The runner's own `exec.*` metrics (host wall-clock; accumulated
  /// across run() calls on this instance).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// One-line human summary of the accumulated exec metrics, e.g.
  /// "exec: 6 jobs on 4 workers, wall 1.2 s, busy 4.4 s, speedup 3.7x,
  /// utilization 92%". The worker count is the threads the last batch
  /// started (the exec.workers gauge), not the pool size. When jobs
  /// failed, every failed submission index is appended ("..., 2 failed
  /// (indices 2, 6)").
  [[nodiscard]] std::string summary() const;

 private:
  /// Busy time over the thread time the batches started (sum of batch
  /// wall x threads started); the one value behind both
  /// exec.worker_utilization and summary().
  [[nodiscard]] double utilization() const;

  ExecConfig cfg_;
  std::size_t workers_ = 1;
  telemetry::MetricsRegistry metrics_;
  std::size_t last_workers_ = 0;  ///< threads the last batch started
  std::uint64_t jobs_done_ = 0;
  double wall_s_ = 0;
  double busy_s_ = 0;
  double thread_s_ = 0;
  /// Failed indices accumulated across run_report() calls (for
  /// summary()); guarded by the metrics mutex while a batch runs.
  std::vector<std::size_t> failed_indices_;
  std::atomic<bool> stop_{false};
};

}  // namespace fgqos::exec

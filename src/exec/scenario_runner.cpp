#include "exec/scenario_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/config_error.hpp"

namespace fgqos::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// State shared between a worker and the attempt thread it supervises.
/// Lives in a shared_ptr so a timed-out (abandoned) attempt can finish —
/// or hang forever — without dangling once the worker moved on.
struct AttemptState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr err;
  /// Per-attempt cancellation: set by the supervising worker on timeout,
  /// surfaced to the job through JobContext::cancel_requested(). Distinct
  /// from the runner-wide stop flag so abandoning one attempt does not
  /// cancel the rest of the batch.
  std::atomic<bool> cancel{false};
  /// Co-owns the runner's stop flag so an abandoned attempt that outlives
  /// the ScenarioRunner (and even run_report's caller) never dereferences
  /// a destroyed atomic.
  std::shared_ptr<std::atomic<bool>> stop;
};

/// Waits up to \p grace_s for \p state's attempt thread to exit.
bool await_attempt(AttemptState& state, double grace_s) {
  std::unique_lock<std::mutex> lk(state.mu);
  return state.cv.wait_for(lk, std::chrono::duration<double>(grace_s),
                           [&state] { return state.done; });
}

std::string join_indices(const std::vector<std::size_t>& v) {
  std::string out;
  for (const std::size_t i : v) {
    if (!out.empty()) {
      out += ", ";
    }
    out += std::to_string(i);
  }
  return out;
}

}  // namespace

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kTimedOut:
      return "timed out";
    case JobStatus::kSkipped:
      return "skipped";
  }
  return "?";
}

bool RunReport::all_ok() const {
  for (const JobOutcome& j : jobs) {
    if (j.status != JobStatus::kOk) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> RunReport::failed_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].status == JobStatus::kFailed ||
        jobs[i].status == JobStatus::kTimedOut) {
      out.push_back(i);
    }
  }
  return out;
}

std::string RunReport::describe() const {
  std::vector<std::size_t> failed, timed_out, skipped;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    switch (jobs[i].status) {
      case JobStatus::kOk:
        ++ok;
        break;
      case JobStatus::kFailed:
        failed.push_back(i);
        break;
      case JobStatus::kTimedOut:
        timed_out.push_back(i);
        break;
      case JobStatus::kSkipped:
        skipped.push_back(i);
        break;
    }
  }
  std::string out = std::to_string(jobs.size()) + " jobs: " +
                    std::to_string(ok) + " ok";
  if (!failed.empty()) {
    out += ", " + std::to_string(failed.size()) + " failed (" +
           join_indices(failed) + ")";
  }
  if (!timed_out.empty()) {
    out += ", " + std::to_string(timed_out.size()) + " timed out (" +
           join_indices(timed_out) + ")";
  }
  if (!skipped.empty()) {
    out += ", " + std::to_string(skipped.size()) + " skipped (" +
           join_indices(skipped) + ")";
  }
  return out;
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t jobs_from_env(std::size_t fallback) {
  const char* env = std::getenv("FGQOS_JOBS");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  config_check(end != nullptr && *end == '\0',
               std::string("FGQOS_JOBS expects an integer, got '") + env +
                   "'");
  return resolve_jobs(static_cast<std::size_t>(parsed));
}

ScenarioRunner::ScenarioRunner(ExecConfig cfg)
    : cfg_(cfg), workers_(resolve_jobs(cfg.jobs)) {
  config_check(cfg_.job_timeout_s >= 0,
               "ScenarioRunner: job timeout must be >= 0");
}

RunReport ScenarioRunner::run_report(std::vector<JobFn> batch) {
  const std::size_t n = batch.size();
  RunReport report;
  report.jobs.resize(n);
  if (n == 0) {
    return report;
  }
  const std::size_t used = std::min(workers_, n);
  const auto batch_start = Clock::now();

  // Attempt threads outlive their worker on timeout, so the batch must
  // outlive them too: shared ownership instead of a stack vector.
  auto jobs = std::make_shared<std::vector<JobFn>>(std::move(batch));

  // Registry creation is not thread-safe; fetch every handle up front and
  // funnel worker updates through one mutex (contended only at job
  // boundaries, which are whole-simulation granular).
  auto& jobs_completed = metrics_.counter("exec.jobs_completed");
  auto& jobs_failed = metrics_.counter("exec.jobs_failed");
  auto& jobs_retried = metrics_.counter("exec.jobs_retried");
  auto& jobs_timed_out = metrics_.counter("exec.jobs_timed_out");
  auto& queue_wait_us = metrics_.histogram("exec.queue_wait_us");
  auto& job_us = metrics_.histogram("exec.job_us");
  auto& job_wall_ms = metrics_.histogram("exec.job_wall_ms");
  auto& queue_depth = metrics_.gauge("exec.queue_depth");
  queue_depth.set(static_cast<double>(n));
  std::mutex metrics_mu;

  std::atomic<std::size_t> next{0};

  // Timed-out attempts whose threads were abandoned mid-job; drained (with
  // a bounded grace) before run_report returns so cooperative jobs cannot
  // keep mutating caller state after the report is handed back.
  std::vector<std::shared_ptr<AttemptState>> abandoned;
  std::mutex abandoned_mu;

  // One attempt of job \p i with context \p ctx; fills status/error into
  // \p out. Honours cfg_.job_timeout_s when positive. Returns the state of
  // a timed-out (abandoned) attempt — with its cancel flag already set —
  // so the caller can gate any retry on the attempt actually exiting;
  // returns nullptr when the attempt finished.
  auto run_attempt = [this, jobs](std::size_t i, JobContext ctx,
                                  JobOutcome& out)
      -> std::shared_ptr<AttemptState> {
    if (cfg_.job_timeout_s <= 0) {
      try {
        (*jobs)[i](ctx);
        out.status = JobStatus::kOk;
      } catch (...) {
        out.status = JobStatus::kFailed;
        out.exception = std::current_exception();
      }
      return nullptr;
    }
    auto state = std::make_shared<AttemptState>();
    state->stop = stop_;
    // The attempt thread's context points only into state it co-owns
    // (the AttemptState and the stop flag), never into the runner.
    ctx.cancelled = state->stop.get();
    ctx.attempt_cancelled = &state->cancel;
    std::thread([state, jobs, i, ctx]() {
      std::exception_ptr err;
      try {
        (*jobs)[i](ctx);
      } catch (...) {
        err = std::current_exception();
      }
      const std::lock_guard<std::mutex> lk(state->mu);
      state->err = err;
      state->done = true;
      state->cv.notify_all();
    }).detach();
    std::unique_lock<std::mutex> lk(state->mu);
    const bool finished =
        state->cv.wait_for(lk, std::chrono::duration<double>(cfg_.job_timeout_s),
                           [&state] { return state->done; });
    if (!finished) {
      state->cancel.store(true, std::memory_order_relaxed);
      out.status = JobStatus::kTimedOut;
      out.exception = nullptr;
      char buf[64];
      std::snprintf(buf, sizeof buf, "timed out after %gs",
                    cfg_.job_timeout_s);
      out.error = buf;
      return state;
    }
    if (state->err != nullptr) {
      out.status = JobStatus::kFailed;
      out.exception = state->err;
    } else {
      out.status = JobStatus::kOk;
    }
    return nullptr;
  };

  auto worker_loop = [&, jobs](std::size_t worker) {
    while (!stop_->load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) {
        return;
      }
      JobOutcome& out = report.jobs[i];
      {
        // Unclaimed jobs left right now. The shared cursor is read under
        // the lock, so the sets are ordered like the reads and a late
        // writer cannot revive a depth another worker already lowered.
        const std::lock_guard<std::mutex> lock(metrics_mu);
        const std::size_t claimed = std::min(next.load(), n);
        queue_depth.set(static_cast<double>(n - claimed));
      }
      const double wait_s = seconds_since(batch_start);
      const auto job_start = Clock::now();
      for (std::uint32_t attempt = 0;; ++attempt) {
        out.attempts = attempt + 1;
        const auto attempt_start = Clock::now();
        JobContext ctx;
        ctx.index = i;
        ctx.seed = derive_seed(cfg_.base_seed, i, attempt);
        ctx.worker = worker;
        ctx.attempt = attempt;
        ctx.cancelled = stop_.get();
        std::shared_ptr<AttemptState> hung = run_attempt(i, ctx, out);
        {
          // Per-attempt wall time: retries and timeouts each get their own
          // sample (job_us keeps the whole-job view).
          const double attempt_s = seconds_since(attempt_start);
          const std::lock_guard<std::mutex> lock(metrics_mu);
          job_wall_ms.record(static_cast<std::uint64_t>(attempt_s * 1e3));
        }
        if (out.status == JobStatus::kOk) {
          break;
        }
        if (out.status == JobStatus::kFailed && out.exception != nullptr) {
          try {
            std::rethrow_exception(out.exception);
          } catch (const std::exception& e) {
            out.error = e.what();
          } catch (...) {
            out.error = "unknown exception";
          }
        }
        const bool want_retry = attempt < cfg_.max_retries &&
                                !stop_->load(std::memory_order_relaxed);
        if (hung != nullptr) {
          // Never launch a retry while the timed-out attempt may still be
          // executing the same closure: wait for it to acknowledge the
          // cancellation (exit), and forfeit the remaining retries if it
          // does not — two attempts of one job must never run
          // concurrently.
          if (!want_retry || !await_attempt(*hung, cfg_.job_timeout_s)) {
            if (want_retry) {
              out.error +=
                  " (attempt ignored cancellation; retries forfeited)";
            }
            const std::lock_guard<std::mutex> lock(abandoned_mu);
            abandoned.push_back(std::move(hung));
            break;
          }
        } else if (!want_retry) {
          break;
        }
        const std::lock_guard<std::mutex> lock(metrics_mu);
        jobs_retried.add(1);
      }
      const double run_s = seconds_since(job_start);
      const std::lock_guard<std::mutex> lock(metrics_mu);
      if (out.status == JobStatus::kOk) {
        jobs_completed.add(1);
      } else {
        jobs_failed.add(1);
        failed_indices_.push_back(i);
        if (out.status == JobStatus::kTimedOut) {
          jobs_timed_out.add(1);
        }
      }
      queue_wait_us.record(static_cast<std::uint64_t>(wait_s * 1e6));
      job_us.record(static_cast<std::uint64_t>(run_s * 1e6));
      busy_s_ += run_s;
    }
  };

  if (used == 1) {
    worker_loop(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(used);
    for (std::size_t w = 0; w < used; ++w) {
      pool.emplace_back(worker_loop, w);
    }
    for (auto& t : pool) {
      t.join();
    }
  }

  // Drain abandoned attempts (their cancel flags are set) under one shared
  // deadline: cooperative jobs exit almost immediately, so results stop
  // mutating before the report is returned. A job that never polls
  // cancel_requested() leaks its thread past this point — it keeps the
  // batch and its AttemptState alive, but references to caller state in
  // its closure are the caller's responsibility (see ExecConfig).
  if (!abandoned.empty()) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(cfg_.job_timeout_s));
    for (const auto& state : abandoned) {
      std::unique_lock<std::mutex> lk(state->mu);
      state->cv.wait_until(lk, deadline, [&state] { return state->done; });
    }
  }

  wall_s_ += seconds_since(batch_start);
  jobs_done_ += n;
  metrics_.gauge("exec.workers").set(static_cast<double>(used));
  metrics_.gauge("exec.wall_s").set(wall_s_);
  metrics_.gauge("exec.busy_s").set(busy_s_);
  metrics_.gauge("exec.speedup").set(wall_s_ > 0 ? busy_s_ / wall_s_ : 0.0);
  metrics_.gauge("exec.worker_utilization")
      .set(wall_s_ > 0 ? busy_s_ / (wall_s_ * static_cast<double>(used))
                       : 0.0);
  return report;
}

void ScenarioRunner::run(std::vector<JobFn> batch) {
  const RunReport report = run_report(std::move(batch));
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const JobOutcome& out = report.jobs[i];
    if (out.status == JobStatus::kOk) {
      continue;
    }
    if (out.exception != nullptr) {
      std::rethrow_exception(out.exception);
    }
    throw ConfigError("job " + std::to_string(i) + " " +
                      job_status_name(out.status) +
                      (out.error.empty() ? "" : ": " + out.error));
  }
}

std::string ScenarioRunner::summary() const {
  char buf[160];
  const double speedup = wall_s_ > 0 ? busy_s_ / wall_s_ : 0.0;
  const double util =
      wall_s_ > 0 ? busy_s_ / (wall_s_ * static_cast<double>(workers_)) : 0.0;
  std::snprintf(buf, sizeof buf,
                "exec: %llu jobs on %zu workers, wall %.2f s, busy %.2f s, "
                "speedup %.2fx, utilization %.0f%%",
                static_cast<unsigned long long>(jobs_done_), workers_, wall_s_,
                busy_s_, speedup, util * 100.0);
  std::string out = buf;
  if (!failed_indices_.empty()) {
    std::vector<std::size_t> sorted = failed_indices_;
    std::sort(sorted.begin(), sorted.end());
    out += ", " + std::to_string(sorted.size()) + " failed (indices " +
           join_indices(sorted) + ")";
  }
  return out;
}

}  // namespace fgqos::exec

#include "exec/scenario_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/cli.hpp"
#include "util/config_error.hpp"

namespace fgqos::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
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
    if (jobs[i].status == JobStatus::kFailed) {
      out.push_back(i);
    }
  }
  return out;
}

std::string RunReport::describe() const {
  std::vector<std::size_t> failed, skipped;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    switch (jobs[i].status) {
      case JobStatus::kOk:
        ++ok;
        break;
      case JobStatus::kFailed:
        failed.push_back(i);
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
  return resolve_jobs(util::parse_count(env, "FGQOS_JOBS"));
}

ScenarioRunner::ScenarioRunner(ExecConfig cfg)
    : cfg_(cfg), workers_(resolve_jobs(cfg.jobs)) {}

RunReport ScenarioRunner::run_report(std::vector<JobFn> batch) {
  const std::size_t n = batch.size();
  RunReport report;
  report.jobs.resize(n);
  if (n == 0) {
    return report;
  }
  const std::size_t used = std::min(workers_, n);
  const auto batch_start = Clock::now();

  // Registry creation is not thread-safe; fetch every handle up front and
  // funnel worker updates through one mutex (contended only at job
  // boundaries, which are whole-simulation granular).
  auto& jobs_completed = metrics_.counter("exec.jobs_completed");
  auto& jobs_failed = metrics_.counter("exec.jobs_failed");
  auto& queue_wait_us = metrics_.histogram("exec.queue_wait_us");
  auto& job_us = metrics_.histogram("exec.job_us");
  auto& queue_depth = metrics_.gauge("exec.queue_depth");
  queue_depth.set(static_cast<double>(n));
  std::mutex metrics_mu;

  std::atomic<std::size_t> next{0};

  auto worker_loop = [&] {
    while (!stop_requested()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) {
        return;
      }
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
      JobOutcome& out = report.jobs[i];
      try {
        batch[i](JobContext{i, derive_seed(cfg_.base_seed, i)});
        out.status = JobStatus::kOk;
      } catch (const std::exception& e) {
        out.status = JobStatus::kFailed;
        out.error = e.what();
        out.exception = std::current_exception();
      } catch (...) {
        out.status = JobStatus::kFailed;
        out.error = "unknown exception";
        out.exception = std::current_exception();
      }
      const double run_s = seconds_since(job_start);
      const std::lock_guard<std::mutex> lock(metrics_mu);
      if (out.status == JobStatus::kOk) {
        jobs_completed.add(1);
      } else {
        jobs_failed.add(1);
        failed_indices_.push_back(i);
      }
      queue_wait_us.record(static_cast<std::uint64_t>(wait_s * 1e6));
      job_us.record(static_cast<std::uint64_t>(run_s * 1e6));
      busy_s_ += run_s;
    }
  };

  if (used == 1) {
    worker_loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(used);
    for (std::size_t w = 0; w < used; ++w) {
      pool.emplace_back(worker_loop);
    }
    for (auto& t : pool) {
      t.join();
    }
  }

  const double batch_wall_s = seconds_since(batch_start);
  wall_s_ += batch_wall_s;
  thread_s_ += batch_wall_s * static_cast<double>(used);
  jobs_done_ += n;
  last_workers_ = used;
  metrics_.gauge("exec.workers").set(static_cast<double>(used));
  metrics_.gauge("exec.wall_s").set(wall_s_);
  metrics_.gauge("exec.busy_s").set(busy_s_);
  metrics_.gauge("exec.speedup").set(wall_s_ > 0 ? busy_s_ / wall_s_ : 0.0);
  metrics_.gauge("exec.worker_utilization").set(utilization());
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
    throw ConfigError("job " + std::to_string(i) + " skipped");
  }
}

double ScenarioRunner::utilization() const {
  return thread_s_ > 0 ? busy_s_ / thread_s_ : 0.0;
}

std::string ScenarioRunner::summary() const {
  char buf[160];
  const double speedup = wall_s_ > 0 ? busy_s_ / wall_s_ : 0.0;
  std::snprintf(buf, sizeof buf,
                "exec: %llu jobs on %zu workers, wall %.2f s, busy %.2f s, "
                "speedup %.2fx, utilization %.0f%%",
                static_cast<unsigned long long>(jobs_done_), last_workers_,
                wall_s_, busy_s_, speedup, utilization() * 100.0);
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

// Scenario-execution engine: deterministic seed derivation, ordered
// result merging, error propagation, exec.* self-metrics, and the
// golden-master determinism contract — identical seeds give bit-identical
// metrics snapshots, and a sweep fanned out over 4 workers merges to
// exactly the serial outcome.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>

#include "exec/scenario_runner.hpp"
#include "soc/soc.hpp"
#include "util/config_error.hpp"
#include "util/csv.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// Seed derivation.
// --------------------------------------------------------------------------

TEST(ExecSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(exec::derive_seed(42, 0), exec::derive_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    for (std::size_t index = 0; index < 64; ++index) {
      seen.insert(exec::derive_seed(base, index));
    }
  }
  // 4 bases x 64 indices, all distinct (collisions would correlate jobs).
  EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(ExecSeed, IndependentOfWorkerCount) {
  // The seed is a pure function of (base, index): nothing about the
  // runner configuration may leak in.
  for (const std::size_t jobs : {1u, 4u}) {
    exec::ScenarioRunner runner({jobs, 7});
    const auto seeds = runner.map(8, [](const exec::JobContext& ctx) {
      return ctx.seed;
    });
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(seeds[i], exec::derive_seed(7, i)) << "jobs=" << jobs;
    }
  }
}

TEST(ExecConfigTest, ResolveJobsAndEnv) {
  EXPECT_GE(exec::resolve_jobs(0), 1u);
  EXPECT_EQ(exec::resolve_jobs(3), 3u);
  ::unsetenv("FGQOS_JOBS");
  EXPECT_EQ(exec::jobs_from_env(5), 5u);
  ::setenv("FGQOS_JOBS", "2", 1);
  EXPECT_EQ(exec::jobs_from_env(5), 2u);
  ::setenv("FGQOS_JOBS", "0", 1);
  EXPECT_GE(exec::jobs_from_env(5), 1u);
  ::setenv("FGQOS_JOBS", "many", 1);
  EXPECT_THROW((void)exec::jobs_from_env(5), ConfigError);
  // strtoull would wrap a leading '-' to 2^64 - 1 workers.
  ::setenv("FGQOS_JOBS", "-1", 1);
  EXPECT_THROW((void)exec::jobs_from_env(5), ConfigError);
  ::unsetenv("FGQOS_JOBS");
}

// --------------------------------------------------------------------------
// Ordered merge and error handling.
// --------------------------------------------------------------------------

TEST(ScenarioRunner, ResultsMergeInSubmissionOrder) {
  exec::ScenarioRunner runner({4, 1});
  // Early jobs sleep longest, so completion order is roughly reversed;
  // the merged vector must still be in submission order.
  const std::size_t n = 12;
  const auto out = runner.map(n, [&](const exec::JobContext& ctx) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds((n - ctx.index) % 5));
    return ctx.index * 10;
  });
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], i * 10);
  }
}

TEST(ScenarioRunner, LowestIndexExceptionWins) {
  exec::ScenarioRunner runner({4, 1});
  std::vector<exec::ScenarioRunner::JobFn> batch;
  for (std::size_t i = 0; i < 8; ++i) {
    batch.push_back([](const exec::JobContext& ctx) {
      if (ctx.index == 2 || ctx.index == 6) {
        throw ConfigError("job " + std::to_string(ctx.index) + " failed");
      }
    });
  }
  try {
    runner.run(std::move(batch));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "job 2 failed");
  }
  EXPECT_EQ(runner.metrics().counter("exec.jobs_failed").value(), 2u);
  EXPECT_EQ(runner.metrics().counter("exec.jobs_completed").value(), 6u);
}

TEST(ScenarioRunner, ExportsExecMetrics) {
  exec::ScenarioRunner runner({2, 1});
  runner.map(6, [](const exec::JobContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return ctx.index;
  });
  auto& m = runner.metrics();
  EXPECT_EQ(m.counter("exec.jobs_completed").value(), 6u);
  EXPECT_EQ(m.gauge("exec.workers").value(), 2.0);
  EXPECT_GT(m.gauge("exec.wall_s").value(), 0.0);
  EXPECT_GT(m.gauge("exec.busy_s").value(), 0.0);
  EXPECT_GT(m.gauge("exec.speedup").value(), 0.0);
  EXPECT_GT(m.gauge("exec.worker_utilization").value(), 0.0);
  EXPECT_EQ(m.histogram("exec.job_us").count(), 6u);
  EXPECT_EQ(m.histogram("exec.queue_wait_us").count(), 6u);
  EXPECT_NE(runner.summary().find("6 jobs on 2 workers"), std::string::npos);

  // A batch of one on a pool of two starts one thread: the printed and the
  // published utilization are the same number.
  exec::ScenarioRunner single({2, 1});
  single.map(1, [](const exec::JobContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return ctx.index;
  });
  const double util = single.metrics().gauge("exec.worker_utilization").value();
  EXPECT_EQ(single.metrics().gauge("exec.workers").value(), 1.0);
  EXPECT_GT(util, 0.5);
  char pct[32];
  std::snprintf(pct, sizeof pct, "utilization %.0f%%", util * 100.0);
  EXPECT_NE(single.summary().find(pct), std::string::npos) << single.summary();
  EXPECT_NE(single.summary().find("1 jobs on 1 workers"), std::string::npos)
      << single.summary();
}

// --------------------------------------------------------------------------
// Partial results and interrupts.
// --------------------------------------------------------------------------

TEST(ScenarioRunner, ReportListsEveryFailedJobAndKeepsPartialResults) {
  exec::ExecConfig cfg;
  cfg.jobs = 4;
  cfg.base_seed = 1;
  exec::ScenarioRunner runner(cfg);
  std::vector<exec::ScenarioRunner::JobFn> batch;
  for (std::size_t i = 0; i < 8; ++i) {
    batch.push_back([](const exec::JobContext& ctx) {
      if (ctx.index == 2 || ctx.index == 6) {
        throw ConfigError("boom " + std::to_string(ctx.index));
      }
    });
  }
  const exec::RunReport report = runner.run_report(std::move(batch));
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.failed_indices(), (std::vector<std::size_t>{2, 6}));
  EXPECT_EQ(report.jobs[2].error, "boom 2");
  EXPECT_EQ(report.jobs[6].error, "boom 6");
  // The six healthy jobs' results survive alongside the failures.
  EXPECT_NE(report.describe().find("8 jobs: 6 ok, 2 failed (2, 6)"),
            std::string::npos);
  EXPECT_EQ(runner.metrics().counter("exec.jobs_failed").value(), 2u);
  EXPECT_NE(runner.summary().find("2 failed (indices 2, 6)"),
            std::string::npos);
}

TEST(ScenarioRunner, RequestStopSkipsRemainingJobs) {
  exec::ExecConfig cfg;
  cfg.jobs = 1;
  cfg.base_seed = 1;
  exec::ScenarioRunner runner(cfg);
  std::vector<exec::ScenarioRunner::JobFn> batch;
  for (std::size_t i = 0; i < 6; ++i) {
    batch.push_back([&runner](const exec::JobContext& ctx) {
      if (ctx.index == 1) {
        runner.request_stop();  // as the SIGINT handler would
      }
    });
  }
  const exec::RunReport report = runner.run_report(std::move(batch));
  EXPECT_TRUE(runner.stop_requested());
  EXPECT_EQ(report.jobs[0].status, exec::JobStatus::kOk);
  EXPECT_EQ(report.jobs[1].status, exec::JobStatus::kOk);
  std::size_t skipped = 0;
  for (const auto& j : report.jobs) {
    skipped += j.status == exec::JobStatus::kSkipped ? 1 : 0;
  }
  EXPECT_GE(skipped, 4u);
  EXPECT_NE(report.describe().find("skipped"), std::string::npos);
  runner.reset_stop();
  EXPECT_FALSE(runner.stop_requested());
}

// --------------------------------------------------------------------------
// Golden-master determinism: one Soc scenario, bit-identical snapshots.
// --------------------------------------------------------------------------

// Runs a small regulated scenario seeded from \p seed and returns the
// full reproducible metrics snapshot (host wall-clock metrics stripped).
std::string scenario_snapshot(std::uint64_t seed) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  for (std::size_t i = 0; i < 2; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "g" + std::to_string(i);
    tg.pattern = i == 0 ? wl::Pattern::kRandomRead : wl::Pattern::kSeqWrite;
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.seed = seed + i;
    chip.add_traffic_gen(i, tg);
  }
  // Regulate without fully serialising: at very tight budgets (<= ~0.5
  // GB/s here) every read waits for a window replenish and the whole
  // snapshot quantises to the window schedule, erasing seed sensitivity.
  chip.qos_block(1).regulator->set_rate(2e9);
  chip.qos_block(1).regulator->set_enabled(true);
  chip.run_for(2 * sim::kPsPerMs);
  telemetry::MetricsRegistry& reg = chip.collect_metrics();
  reg.erase_prefix("sim.wall");
  std::ostringstream os;
  reg.write_json(os, chip.now());
  return os.str();
}

TEST(ExecDeterminism, SameSeedBitIdenticalSnapshot) {
  const std::string a = scenario_snapshot(12345);
  const std::string b = scenario_snapshot(12345);
  EXPECT_EQ(a, b);
}

TEST(ExecDeterminism, DifferentSeedDifferentOutcome) {
  EXPECT_NE(scenario_snapshot(12345), scenario_snapshot(54321));
}

// --------------------------------------------------------------------------
// Sweep determinism: 6 points, --jobs 1 vs --jobs 4, identical merge.
// --------------------------------------------------------------------------

struct MiniOutcome {
  std::uint64_t granted_bytes = 0;
  std::uint64_t read_p99_ps = 0;
  std::string snapshot;
};

// One sweep point: a regulated random-read generator whose budget is the
// swept knob and whose RNG stream comes from the job seed.
MiniOutcome run_mini_point(double budget_mbps, std::uint64_t seed) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  wl::TrafficGenConfig tg;
  tg.pattern = wl::Pattern::kRandomRead;
  tg.seed = seed;
  chip.add_traffic_gen(0, tg);
  chip.qos_block(1).regulator->set_rate(budget_mbps * 1e6);
  chip.qos_block(1).regulator->set_enabled(true);
  chip.run_for(2 * sim::kPsPerMs);
  MiniOutcome o;
  o.granted_bytes = chip.accel_port(0).stats().bytes_granted.value();
  o.read_p99_ps =
      static_cast<std::uint64_t>(chip.accel_port(0).stats().read_latency.p99());
  telemetry::MetricsRegistry& reg = chip.collect_metrics();
  reg.erase_prefix("sim.wall");
  std::ostringstream os;
  reg.write_json(os, chip.now());
  o.snapshot = os.str();
  return o;
}

// The merged sweep artifact for a given worker count: CSV text plus every
// per-point snapshot, exactly as fgqos_sweep assembles them.
std::string run_mini_sweep(std::size_t jobs) {
  const std::vector<double> budgets = {100, 200, 400, 800, 1600, 3200};
  exec::ScenarioRunner runner({jobs, 99});
  const auto outcomes =
      runner.map(budgets.size(), [&](const exec::JobContext& ctx) {
        return run_mini_point(budgets[ctx.index], ctx.seed);
      });
  util::Table table({"budget_mbps", "granted_bytes", "read_p99_ps"});
  std::string merged;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    table.add_row({budgets[i], outcomes[i].granted_bytes,
                   outcomes[i].read_p99_ps});
    merged += outcomes[i].snapshot;
  }
  std::ostringstream csv;
  table.write_csv(csv);
  return csv.str() + merged;
}

TEST(ExecDeterminism, SweepJobs1VsJobs4Identical) {
  const std::string serial = run_mini_sweep(1);
  const std::string parallel = run_mini_sweep(4);
  EXPECT_EQ(serial, parallel);
  // And the artifact is non-trivial: six CSV rows plus six snapshots.
  EXPECT_GT(serial.size(), 6u * 100u);
}

}  // namespace
}  // namespace fgqos

/// \file bench_exp13_bank_regulation.cpp
/// \brief EXP13 — per-bank vs. aggregate regulation on the serving defense.
///
/// The PR-7 request-serving scenario recast onto a bank-partitioned
/// channel: the latency-critical KV tenant owns DRAM bank 0 (its 64 MiB
/// footprint sits inside the first 128 MiB slice). One bulk port runs a
/// single-line row-miss thrasher *inside the tenant's bank*; the other
/// two stream reads through private banks the tenant never touches.
/// Both defenses apply one uniform policy to every bulk port. Swept over
/// offered load, three schemes:
///
///   * none      — bulk free-running: the tenant's request p99 collapses;
///   * aggregate — the classic per-port token bucket, same rate on every
///                 bulk port. One knob prices every admitted byte
///                 identically, so the protective rate is set by the most
///                 harmful byte anywhere in the address space;
///   * perbank   — the same BankBudgetSpec on every bulk port, with the
///                 budgets taken from what per-bank interference
///                 accounting actually measures. The tenant's stalls are
///                 charged to the private-bank streamers (bus occupancy),
///                 NOT to the in-bank thrasher — FR-FCFS row-hit-first
///                 scheduling absorbs the row misses behind the tenant's
///                 hits. So every private bank is held at the protective
///                 rate while the tenant's own bank, whose bulk traffic
///                 is measured harmless, keeps its headroom. Equal victim
///                 protection, strictly more bulk throughput.
///
/// This is the paper's tight monitoring/regulation coupling in one
/// experiment: the per-bank counters (what the tentpole adds) are the
/// evidence that lets the per-bank budgets beat the port-granular knob.
///
/// CSV `exp13_bank_regulation.csv` feeds `plot_experiments.py bank` and
/// backs the CI dominance gate (ci/run_report_gate.sh): per-bank must
/// match aggregate's victim p99/attainment at higher total bulk GB/s.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "qos/bank_budget_spec.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

constexpr sim::TimePs kDurationPs = 20 * sim::kPsPerMs;
constexpr std::size_t kBulkCount = 3;  ///< ports 0..2; tenant owns port 3
/// Regulation window for both schemes. Short on purpose: the tenant's
/// SLO is microseconds, so admission must be smooth at that scale —
/// a 10 us window would admit each bank's whole budget as one burst.
constexpr sim::TimePs kWindowPs = sim::kPsPerUs;

/// Aggregate scheme: the uniform per-port rate that restores the
/// tenant's SLO. The port knob cannot tell a harmless byte from a
/// harmful one, so every port — including the one whose traffic never
/// stalls the tenant — is clamped to the protective rate.
constexpr double kAggregateMbps = 200.0;
/// Per-bank scheme: uniform per-port budgets, set from what the
/// per-bank blame counters measure. Private banks carry the streamers
/// whose bus occupancy is what actually stalls the tenant, so they get
/// exactly the aggregate scheme's protective rate. The tenant's own
/// bank gets 4x that: its bulk traffic is deep row-miss thrash that the
/// controller's row-hit-first scheduler absorbs behind the tenant's
/// locality-rich requests, and the counters show it contributes no
/// victim stalls. That measured headroom is bandwidth the port-granular
/// knob can never reclaim.
constexpr double kTenantBankMbps = 800.0;
constexpr double kPrivateBankMbps = 200.0;

enum class BankScheme { kNone, kAggregate, kPerBank };

const char* scheme_name(BankScheme s) {
  switch (s) {
    case BankScheme::kNone: return "none";
    case BankScheme::kAggregate: return "aggregate";
    case BankScheme::kPerBank: return "perbank";
  }
  return "?";
}

ServingRow run_point(BankScheme scheme, double load_qps) {
  // The tenant's 64 MiB footprint sits in bank-partitioned slice 0: it
  // owns bank 0.
  const wl::ServingSpec serving = scenario::kv_serving(load_qps, kDurationPs);
  scenario::Spec spec;
  spec.platform.dram.mapping = dram::MappingPolicy::kBankPartitioned;
  spec.serving = &serving;
  const std::uint64_t slice = spec.platform.dram.timing.capacity_bytes /
                              spec.platform.dram.timing.banks;

  // Port 0 hosts the thrasher (random reads inside the tenant's bank);
  // ports 1..2 stream reads through private banks of their own. The
  // defenses below do not exploit this layout — each applies one uniform
  // policy to all three bulk ports.
  wl::TrafficGenConfig thrash;
  thrash.name = "thrash";
  thrash.pattern = wl::Pattern::kRandomRead;
  thrash.base = 64ull << 20;  // tenant footprint ends here; still bank 0
  thrash.footprint_bytes = 16ull << 20;
  thrash.seed = 60;
  // Single-line bursts: every access opens a fresh row (the default
  // 1 KiB burst would be 15/16 row hits), and a deep outstanding window
  // keeps the bank's row-miss pipeline saturated.
  thrash.burst_bytes = 64;
  thrash.max_outstanding = 48;
  spec.aggressors.push_back(thrash);
  for (std::size_t p = 1; p < kBulkCount; ++p) {
    wl::TrafficGenConfig stream;
    stream.name = "stream" + std::to_string(p);
    stream.pattern = wl::Pattern::kSeqRead;
    stream.base = static_cast<axi::Addr>(p) * slice;
    stream.footprint_bytes = slice;
    stream.seed = 80 + p;
    spec.aggressors.push_back(stream);
  }

  qos::BankBudgetSpec banks;
  if (scheme == BankScheme::kAggregate) {
    spec.scheme = Scheme::kHw;
    spec.regulated_ports = scenario::first_ports(kBulkCount);
    spec.budget_bps = kAggregateMbps * 1e6;
    spec.window_ps = kWindowPs;
  } else if (scheme == BankScheme::kPerBank) {
    banks.window_ps = kWindowPs;
    for (std::uint32_t p = 0; p < kBulkCount; ++p) {
      banks.ports.push_back({p, kPrivateBankMbps, {{0, kTenantBankMbps}}});
    }
    spec.bank_budgets = &banks;
  }
  Scenario s = scenario::build(spec, env_observers(), /*seed=*/1);
  ServingRow r = run_serving(s, kDurationPs, scheme_name(scheme), load_qps);
  if (scheme == BankScheme::kPerBank) {
    std::uint64_t throttled = 0;
    for (std::size_t p = 0; p < kBulkCount; ++p) {
      throttled += s.chip->bank_regulator(1 + p)->bank_stats(0).throttled_ps;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "bank0 throttled %.1f ms",
                  static_cast<double>(throttled) / 1e9);
    r.note = buf;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "EXP13: per-bank vs. aggregate regulation — bank-partitioned channel\n"
      "  KV tenant owns bank 0; %zu bulk ports (one in-bank thrasher, two "
      "private-bank\n  streamers), uniform policy per scheme. SLO %.1f us; "
      "aggregate %.0f MB/s/port\n  vs. per-bank %.0f MB/s on private banks, "
      "%.0f MB/s on the tenant's bank\n\n",
      kBulkCount, static_cast<double>(scenario::kKvSloPs) / 1e6, kAggregateMbps,
      kPrivateBankMbps, kTenantBankMbps);

  const std::vector<double> loads = {60e3, 100e3, 140e3};
  struct Point {
    BankScheme scheme;
    double load;
  };
  std::vector<Point> grid;
  for (const BankScheme s : {BankScheme::kNone, BankScheme::kAggregate,
                             BankScheme::kPerBank}) {
    for (const double l : loads) {
      grid.push_back({s, l});
    }
  }
  exec::ScenarioRunner runner(bench_exec_config(argc, argv));
  const std::vector<ServingRow> rows =
      runner.map(grid.size(), [&](const exec::JobContext& ctx) {
        const Point& pt = grid[ctx.index];
        return run_point(pt.scheme, pt.load);
      });

  util::Table table({"scheme", "load_kqps", "completed_kqps", "p50_us",
                     "p99_us", "p99.9_us", "attain_%", "bulk_GB/s", "note"});
  for (const ServingRow& r : rows) {
    table.add_row({r.scheme, util::format_fixed(r.load_qps / 1e3, 0),
                   util::format_fixed(r.completed_qps / 1e3, 1),
                   util::format_fixed(r.p50_us, 2),
                   util::format_fixed(r.p99_us, 2),
                   util::format_fixed(r.p999_us, 2), r.attainment_table,
                   util::format_fixed(r.bulk_gbps, 2), r.note});
  }
  table.print();

  util::Table csv({"scheme", "load_qps", "offered_qps", "completed_qps",
                   "p50_us", "p99_us", "p999_us", "attainment_pct",
                   "bulk_gbps"});
  for (const ServingRow& r : rows) {
    csv.add_row({r.scheme, util::format_fixed(r.load_qps, 0),
                 util::format_fixed(r.offered_qps, 2),
                 util::format_fixed(r.completed_qps, 2),
                 util::format_fixed(r.p50_us, 3),
                 util::format_fixed(r.p99_us, 3),
                 util::format_fixed(r.p999_us, 3), r.attainment_csv,
                 util::format_fixed(r.bulk_gbps, 3)});
  }
  csv.save_csv("exp13_bank_regulation.csv");
  std::printf(
      "\nperbank should match aggregate's p99/attainment at every load while "
      "keeping\nstrictly more bulk throughput (the tenant-bank headroom the "
      "port knob\ncannot reclaim). CSV written to exp13_bank_regulation.csv\n");
  print_exec_summary(runner);
  return 0;
}

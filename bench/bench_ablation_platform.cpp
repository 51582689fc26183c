/// \file bench_ablation_platform.cpp
/// \brief Platform-model ablations (DESIGN.md §5): the substrate design
///        choices that shape every other experiment.
///
/// Three sweeps on the same 2-aggressor + critical-CPU scenario:
///  * DRAM page policy (open vs. closed) x address mapping (bank-
///    interleaved vs. row-major);
///  * crossbar arbitration granularity (line vs. transaction) x DMA
///    burst length — shows how burst locking amplifies CPU interference;
///  * regulator replenish kind (fixed window vs. token bucket with a
///    4-window burst cap) — burst tolerance vs. tail latency.
#include <cstdio>

#include "common.hpp"

using namespace fgqos;
using namespace fgqos::bench;

namespace {

struct Meas {
  double crit_mean_us;
  double crit_p99_us;
  double aggr_gbps;
};

Meas run(const std::function<void(soc::SocConfig&)>& tweak) {
  scenario::Spec p = bench_spec(Scheme::kNone, 2, 16);
  tweak(p.platform);
  Scenario s = build_scenario(p);
  run_critical(s, 1000 * sim::kPsPerMs);
  const auto& h = s.critical->stats().iteration_ps;
  return Meas{h.mean() / 1e6, static_cast<double>(h.p99()) / 1e6,
              s.aggressor_bps() / 1e9};
}

}  // namespace

int main() {
  std::printf("Platform ablations (DESIGN.md section 5)\n\n");

  // --- 1. Page policy x mapping --------------------------------------------
  {
    util::Table t({"page_policy", "mapping", "crit_mean_us", "crit_p99_us",
                   "aggr_GB/s"});
    for (const auto policy :
         {dram::PagePolicy::kOpen, dram::PagePolicy::kClosed}) {
      for (const auto mapping : {dram::MappingPolicy::kBankInterleaved,
                                 dram::MappingPolicy::kRowBankColumn}) {
        const Meas m = run([&](soc::SocConfig& cfg) {
          cfg.dram.page_policy = policy;
          cfg.dram.mapping = mapping;
        });
        t.add_row({policy == dram::PagePolicy::kOpen ? "open" : "closed",
                   mapping == dram::MappingPolicy::kBankInterleaved
                       ? "interleaved"
                       : "row_major",
                   util::format_fixed(m.crit_mean_us, 1),
                   util::format_fixed(m.crit_p99_us, 1),
                   util::format_fixed(m.aggr_gbps, 2)});
      }
    }
    std::printf("1. DRAM page policy x address mapping:\n");
    t.print();
    t.save_csv("ablation_page_mapping.csv");
  }

  // --- 2. Arbitration granularity x burst length ---------------------------
  {
    util::Table t({"granularity", "dma_burst", "crit_mean_us", "crit_p99_us",
                   "aggr_GB/s"});
    for (const auto gran :
         {axi::ArbGranularity::kLine, axi::ArbGranularity::kTransaction}) {
      for (const std::uint32_t burst : {256u, 1024u, 4096u}) {
        scenario::Spec p = bench_spec(Scheme::kNone, 0, 16);
        p.platform.xbar.granularity = gran;
        p.aggressors =
            scenario::standard_aggressors(2, wl::Pattern::kSeqRead, 30);
        for (wl::TrafficGenConfig& a : p.aggressors) {
          a.burst_bytes = burst;
        }
        Scenario s = build_scenario(p);
        run_critical(s, 1000 * sim::kPsPerMs);
        const auto& h = s.critical->stats().iteration_ps;
        t.add_row(
            {gran == axi::ArbGranularity::kLine ? "line" : "transaction",
             util::format_bytes(burst),
             util::format_fixed(h.mean() / 1e6, 1),
             util::format_fixed(static_cast<double>(h.p99()) / 1e6, 1),
             util::format_fixed(s.aggressor_bps() / 1e9, 2)});
      }
    }
    std::printf("\n2. crossbar arbitration granularity x DMA burst length:\n");
    t.print();
    t.save_csv("ablation_arbitration.csv");
  }

  // --- 3. Replenish kind ----------------------------------------------------
  {
    util::Table t({"replenish", "burst_cap", "crit_mean_us", "crit_p99_us",
                   "aggr_GB/s"});
    struct Cfg {
      qos::ReplenishKind kind;
      std::uint64_t windows;
      const char* label;
    };
    for (const Cfg c : {Cfg{qos::ReplenishKind::kFixedWindow, 1, "fixed"},
                        Cfg{qos::ReplenishKind::kTokenBucket, 1, "bucket"},
                        Cfg{qos::ReplenishKind::kTokenBucket, 4, "bucket"}}) {
      scenario::Spec p = bench_spec(Scheme::kHw, 2, 16);
      p.budget_bps = 800e6;
      p.window_ps = 10 * sim::kPsPerUs;
      // Phased aggressors (50 us on / 50 us off): idle phases let a
      // token bucket accumulate credit that is then spent as a burst.
      for (wl::TrafficGenConfig& a : p.aggressors) {
        a.active_ps = 50 * sim::kPsPerUs;
        a.idle_ps = 50 * sim::kPsPerUs;
      }
      p.platform.default_regulator.kind = c.kind;
      p.platform.default_regulator.max_accumulation_windows = c.windows;
      Scenario s = build_scenario(p);
      run_critical(s, 1000 * sim::kPsPerMs);
      const auto& h = s.critical->stats().iteration_ps;
      t.add_row({c.label, static_cast<std::uint64_t>(c.windows),
                 util::format_fixed(h.mean() / 1e6, 1),
                 util::format_fixed(static_cast<double>(h.p99()) / 1e6, 1),
                 util::format_fixed(s.aggressor_bps() / 1e9, 2)});
    }
    std::printf("\n3. regulator replenish kind (800 MB/s budgets):\n");
    t.print();
    t.save_csv("ablation_replenish.csv");
  }
  return 0;
}

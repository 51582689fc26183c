/// \file fgqos_sim.cpp
/// \brief Command-line scenario driver: build a platform, load it, apply a
///        regulation scheme and print the full statistics dump.
///
/// Examples:
///   fgqos_sim --preset zcu102 --aggressors 4 --pattern seq_rd
///             --scheme hw --budget-mbps 400 --window-us 1 --duration-ms 20
///   fgqos_sim --preset ultra96 --critical stream --scheme sw
///             --budget-mbps 200 --out run --blame --journal
///   fgqos_sim --list-presets
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <sstream>

#include "scenario/scenario.hpp"
#include "scenario/tool_args.hpp"
#include "soc/presets.hpp"
#include "telemetry/manifest.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "workload/cpu_workloads.hpp"

using namespace fgqos;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void on_signal(int) { g_stop = 1; }

void usage() {
  std::printf(
      "fgqos_sim — scenario driver for the fgqos platform simulator\n\n"
      "options:\n"
      "  --preset NAME       platform preset (default zcu102)\n"
      "  --list-presets      print preset names and exit\n"
      "  --critical KIND     latency | stream | none (default latency)\n"
      "  --aggressors N      DMA aggressor count (default 4)\n"
      "  --pattern P         seq_rd seq_wr copy rnd_rd rnd_wr strided\n"
      "  --scheme S          none | hw | sw (default none)\n"
      "  --budget-mbps B     per-aggressor budget (default 400)\n"
      "  --window-us W       HW regulation window (default 1)\n"
      "  --mapping M         DRAM mapping: row_bank_col | bank_interleaved |\n"
      "                      bank_partitioned (default: preset policy)\n"
      "  --bank-budget-spec FILE\n"
      "                      JSON per-bank budget plan: per-bank token-bucket\n"
      "                      regulators on the listed HP ports\n"
      "  --bank-telemetry    publish per-bank metrics/series (dram.bank.*)\n"
      "                      and the blame-matrix bank dimension\n"
      "  --aggressor-footprint-mb MB\n"
      "                      aggressor working-set size (default 16)\n"
      "  --aggressor-stride-mb MB\n"
      "                      spacing between aggressor base addresses\n"
      "                      (default 64; one bank slice apart under\n"
      "                      bank_partitioned needs capacity/banks MB)\n"
      "  --thrash-aggressors K\n"
      "                      make the first K aggressors single-line\n"
      "                      row-miss thrashers (random 64 B reads, deep\n"
      "                      outstanding window) regardless of --pattern\n"
      "  --duration-ms D     simulated time (default 20)\n"
      "  --seed N            base RNG seed (default 100)\n"
      "  --out DIR           write the run bundle into DIR: stats.csv,\n"
      "                      metrics.json, metrics.csv and the files of\n"
      "                      each observer below (docs/OBSERVABILITY.md)\n"
      "  --trace             Chrome trace_event timeline (trace.json)\n"
      "  --trace-filter C    categories: port,dram,qos,workload,kernel\n"
      "  --blame             interference-attribution blame matrices\n"
      "                      (blame.csv, blame.json)\n"
      "  --blame-window-us W blame accounting window (default 100)\n"
      "  --sla-min-mbps B    SLA watchdog on the protected port (the CPU\n"
      "                      port, else the first serving tenant's): min\n"
      "                      bandwidth per window\n"
      "  --sla-p99-us L      SLA watchdog: max protected-port read p99\n"
      "  --sla-stall-frac F  SLA watchdog: max interference fraction [0,1]\n"
      "  --fault-spec FILE   JSON fault plan to inject (see docs/FAULTS.md)\n"
      "  --envelope-spec FILE\n"
      "                      certified worst-case envelope (fgqos_certify):\n"
      "                      regulated ports are admitted through a\n"
      "                      QosManager whose reserve() checks the certified\n"
      "                      bounds; the SLA watchdog (when active)\n"
      "                      cross-checks observed p99 against the envelope\n"
      "                      (requires --scheme hw; see docs/CERTIFICATION.md)\n"
      "  --serving-spec FILE JSON request-serving scenario: key-value\n"
      "                      tenants on HP ports (see docs/SERVING.md)\n"
      "  --timeseries        windowed time series (timeseries.csv,\n"
      "                      timeseries.json)\n"
      "  --timeseries-filter G   comma-separated series globs (qos.*,dram.*)\n"
      "  --timeseries-window-us W  sampling window (default 100)\n"
      "  --journal           QoS decision journal (journal.jsonl)\n"
      "  --profile           host-side hot-path profiler: per-component\n"
      "                      CPU attribution (profile.json, profile.folded)\n"
      "  --watchdog-fallback-mbps B\n"
      "                      degraded-mode watchdog on each regulated port:\n"
      "                      fall back to B MB/s when the monitor feed goes\n"
      "                      stale or saturates (requires --scheme hw)\n"
      "\nThe observer flags need --out. SIGINT/SIGTERM stop the simulation\n"
      "early; the bundle is still written from the partial run.\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    if (args.has("help")) {
      usage();
      return 0;
    }
    if (args.has("list-presets")) {
      for (const auto& n : soc::preset_names()) {
        std::printf("%s\n", n.c_str());
      }
      return 0;
    }

    const scenario::ToolArgs t =
        scenario::parse_tool_args(args, 4, "none", /*sla=*/true);
    const std::string preset = args.get("preset", "zcu102");
    const std::string critical = args.get("critical", "latency");
    const std::string pattern_name = args.get("pattern", "seq_rd");
    const double duration_ms = args.get_positive("duration-ms", 20);
    const double aggressor_stride_mb =
        args.get_double("aggressor-stride-mb", 64);
    if (aggressor_stride_mb <= 0) {
      throw ConfigError("--aggressor-stride-mb must be positive");
    }
    const std::size_t thrash_aggressors =
        args.get_count("thrash-aggressors", 0);
    if (thrash_aggressors > t.aggressors) {
      throw ConfigError("--thrash-aggressors exceeds --aggressors");
    }
    const double wd_fallback_mbps =
        args.get_double("watchdog-fallback-mbps", 0);
    if (wd_fallback_mbps > 0 && t.scheme != "hw") {
      throw ConfigError("--watchdog-fallback-mbps requires --scheme hw");
    }
    scenario::Observers obs = t.observers;
    if (obs.journal == scenario::Journal::kRun) {
      // This tool's journal also holds the scheme's t = 0 register writes.
      obs.journal = scenario::Journal::kSetupAndRun;
    }
    for (const auto& k : args.unused_keys()) {
      throw ConfigError("unknown option --" + k + " (see --help)");
    }

    scenario::Spec spec = t.spec(soc::preset_by_name(preset));
    spec.aggressors = scenario::standard_aggressors(
        t.aggressors, wl::pattern_from_name(pattern_name), t.seed,
        static_cast<axi::Addr>(aggressor_stride_mb * (1 << 20)),
        static_cast<std::uint64_t>(t.aggressor_footprint_mb * (1 << 20)),
        thrash_aggressors);
    spec.regulated_ports = scenario::first_ports(
        std::min(t.aggressors, spec.platform.accel_ports));
    spec.watchdog_fallback_bps = wd_fallback_mbps * 1e6;
    if (critical == "latency" || critical == "stream") {
      cpu::CoreConfig cc;
      cc.name = "critical";
      spec.critical = scenario::Critical{cc, [critical] {
        return critical == "latency" ? wl::make_pointer_chase({})
                                     : wl::make_stream({});
      }};
    } else if (critical != "none") {
      throw ConfigError("unknown critical workload '" + critical + "'");
    }

    std::ostringstream sc;
    sc << "preset=" << preset << " critical=" << critical
       << " aggressors=" << t.aggressors << " pattern=" << pattern_name
       << " scheme=" << t.scheme << " budget_mbps=" << spec.budget_bps / 1e6
       << " window_us=" << t.window_us << " duration_ms=" << duration_ms;
    // Conditional tokens keep manifests of pre-existing scenarios
    // byte-identical (golden compatibility).
    if (!t.mapping.empty()) {
      sc << " mapping=" << t.mapping;
    }
    if (t.bank_telemetry) {
      sc << " bank_telemetry=1";
    }
    if (args.has("aggressor-footprint-mb")) {
      sc << " aggressor_footprint_mb=" << t.aggressor_footprint_mb;
    }
    if (args.has("aggressor-stride-mb")) {
      sc << " aggressor_stride_mb=" << aggressor_stride_mb;
    }
    if (thrash_aggressors > 0) {
      sc << " thrash_aggressors=" << thrash_aggressors;
    }
    sc << scenario::hash_token("envelope", t.envelope)
       << scenario::hash_token("bank_budgets", t.bank_budgets)
       << scenario::hash_token("serving", t.serving);
    // Provenance embedded in every export: semantic inputs only, so two
    // runs of the same scenario carry byte-identical manifests.
    const telemetry::RunManifest manifest =
        t.manifest("fgqos_sim", t.seed, sc.str());

    if (!t.out.empty()) {
      scenario::make_bundle_dir(t.out);
    }
    scenario::Scenario s = scenario::build(spec, obs, t.seed);
    soc::Soc& chip = *s.chip;
    std::size_t rejected = 0;
    for (std::size_t k = 0; k < s.admitted.size(); ++k) {
      std::printf("admission: %s reserve %.0f MB/s -> %s\n",
                  chip.accel_port(spec.regulated_ports[k]).name().c_str(),
                  spec.budget_bps / 1e6,
                  s.admitted[k] ? "accepted" : "REJECTED");
      if (!s.admitted[k]) {
        ++rejected;
      }
    }
    if (rejected > 0) {
      std::printf("admission: %zu reservation(s) rejected against the "
                  "certified envelope; rejected ports run best-effort\n",
                  rejected);
    }
    if (t.bank_budgets) {
      std::printf("per-bank regulation: %zu port regulator(s) armed\n",
                  t.bank_budgets->ports.size());
    }

    // Run in slices so SIGINT/SIGTERM can stop the simulation early while
    // still flushing every requested output from the partial run.
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    const auto duration_ps = static_cast<sim::TimePs>(duration_ms * 1e9);
    const sim::TimePs slice =
        std::max<sim::TimePs>(sim::kPsPerMs, duration_ps / 100);
    while (chip.now() < duration_ps && g_stop == 0) {
      chip.run_for(std::min<sim::TimePs>(slice, duration_ps - chip.now()));
    }
    if (g_stop != 0) {
      std::printf("interrupted at %s — writing partial results\n",
                  util::format_time_ps(chip.now()).c_str());
    }
    s.finish();

    sim::StatsRegistry stats;
    chip.collect_stats(stats);
    util::Table table({"stat", "value"});
    for (const auto& [name, value] : stats.all()) {
      table.add_row({name, value});
    }
    std::printf("scenario: preset=%s critical=%s aggressors=%zu pattern=%s "
                "scheme=%s\n",
                preset.c_str(), critical.c_str(), t.aggressors,
                pattern_name.c_str(), t.scheme.c_str());
    std::printf("simulated %s, DRAM bandwidth %s, bus utilisation %.1f%%\n\n",
                util::format_time_ps(chip.now()).c_str(),
                util::format_bandwidth(chip.dram_bandwidth_bps()).c_str(),
                stats.get("dram.bus_utilization") * 100);
    table.print();
    if (!t.out.empty()) {
      table.save_csv(t.out + "/stats.csv");
      s.write(t.out, manifest);
      std::printf("\nrun bundle written to %s\n", t.out.c_str());
    }
    if (obs.profile) {
      const telemetry::ProfileSnapshot prof = chip.profiler()->snapshot();
      std::printf("\nhost profile: %llu events, %llu ticks, coverage %.1f%%\n",
                  static_cast<unsigned long long>(prof.events_dispatched),
                  static_cast<unsigned long long>(prof.ticks_dispatched),
                  prof.coverage() * 100.0);
      std::vector<telemetry::ProfileTagEntry> top = prof.tags;
      std::sort(top.begin(), top.end(),
                [](const auto& a, const auto& b) { return a.cycles > b.cycles; });
      const std::size_t n = std::min<std::size_t>(top.size(), 8);
      for (std::size_t i = 0; i < n; ++i) {
        const double share =
            prof.total_cycles == 0
                ? 0.0
                : static_cast<double>(top[i].cycles) /
                      static_cast<double>(prof.total_cycles);
        std::printf("  %-28s %6.2f%%  %12llu cycles  %10llu hits\n",
                    top[i].name.c_str(), share * 100.0,
                    static_cast<unsigned long long>(top[i].cycles),
                    static_cast<unsigned long long>(top[i].count));
      }
    }
    if (fault::FaultInjector* inj = chip.faults()) {
      std::printf("\nfaults injected: %llu total\n",
                  static_cast<unsigned long long>(inj->injected_total()));
      for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
        const auto kind = static_cast<fault::FaultKind>(k);
        if (inj->injected(kind) > 0) {
          std::printf("  %-18s %llu\n", fault::fault_kind_name(kind),
                      static_cast<unsigned long long>(inj->injected(kind)));
        }
      }
    }
    if (chip.serving_tenant_count() > 0) {
      std::printf("\nserving tenants:\n");
      std::printf("  %-12s %-8s %12s %12s %9s %9s %9s %9s %10s\n", "tenant",
                  "arrival", "offered_qps", "completed_qps", "dropped",
                  "p50_us", "p99_us", "p999_us", "attain_pct");
      for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
        wl::ServingTenant& tenant = chip.serving_tenant(i);
        std::printf("  %-12s %-8s %12.0f %12.0f %9llu %9.2f %9.2f %9.2f "
                    "%10s\n",
                    tenant.spec().name.c_str(),
                    wl::arrival_kind_name(tenant.spec().arrival), tenant.offered_qps(),
                    tenant.completed_qps(),
                    static_cast<unsigned long long>(tenant.stats().dropped),
                    static_cast<double>(tenant.latency().p50()) / 1e6,
                    static_cast<double>(tenant.latency().p99()) / 1e6,
                    static_cast<double>(tenant.latency().p999()) / 1e6,
                    wl::attainment_pct_cell(tenant, 2).c_str());
      }
    }
    if (s.sla != nullptr) {
      std::ostringstream report;
      s.sla->write_report(report);
      std::printf("\n%s", report.str().c_str());
    }
    if (s.manager != nullptr && s.manager->envelope_fallback()) {
      std::printf("\nWARNING: certified envelope violated during the run — "
                  "manager degraded to conservative fallback budgets\n");
    }
    return 0;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

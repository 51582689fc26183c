/// \file fgqos_sim.cpp
/// \brief Command-line scenario driver: build a platform, load it, apply a
///        regulation scheme and print the full statistics dump.
///
/// Examples:
///   fgqos_sim --preset zcu102 --aggressors 4 --pattern seq_rd
///             --scheme hw --budget-mbps 400 --window-us 1 --duration-ms 20
///   fgqos_sim --preset ultra96 --critical stream --scheme sw
///             --budget-mbps 200 --csv out.csv
///   fgqos_sim --list-presets
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "dram/address_mapper.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "qos/bank_budget_spec.hpp"
#include "qos/envelope.hpp"
#include "qos/qos_manager.hpp"
#include "qos/sla_watchdog.hpp"
#include "qos/soft_memguard.hpp"
#include "qos/window.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"
#include "telemetry/manifest.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/serving.hpp"
#include "workload/traffic_gen.hpp"

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
      "  --csv FILE          also write the stats table as CSV\n"
      "  --trace FILE        write a Chrome trace_event JSON timeline\n"
      "  --trace-filter C    categories: port,dram,qos,workload,kernel\n"
      "  --metrics-json FILE metrics snapshot (per-hop histograms) as JSON\n"
      "  --metrics-csv FILE  metrics snapshot as CSV\n"
      "  --blame-csv FILE    interference-attribution blame matrices as CSV\n"
      "  --blame-json FILE   blame matrices as JSON\n"
      "  --blame-window-us W blame accounting window (default 100)\n"
      "  --sla-min-mbps B    SLA watchdog: min CPU-port bandwidth per window\n"
      "  --sla-p99-us L      SLA watchdog: max CPU read p99 per window\n"
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
      "  --timeseries-csv FILE   windowed time series as long-format CSV\n"
      "  --timeseries-json FILE  windowed time series (+summaries) as JSON\n"
      "  --timeseries-filter G   comma-separated series globs (qos.*,dram.*)\n"
      "  --timeseries-window-us W  sampling window (default 100)\n"
      "  --journal FILE      QoS decision journal as JSON-lines\n"
      "  --profile           host-side hot-path profiler: per-component\n"
      "                      CPU attribution + kernel micro-telemetry\n"
      "  --profile-json FILE profile snapshot as JSON (implies --profile)\n"
      "  --profile-folded FILE\n"
      "                      folded-stack text for flamegraph tooling\n"
      "                      (implies --profile)\n"
      "  --watchdog-fallback-mbps B\n"
      "                      degraded-mode watchdog on each regulated port:\n"
      "                      fall back to B MB/s when the monitor feed goes\n"
      "                      stale or saturates (requires --scheme hw)\n"
      "\nSIGINT/SIGTERM stop the simulation early; all requested outputs\n"
      "are still written from the partial run.\n");
}

wl::Pattern pattern_from(const std::string& s) {
  if (s == "seq_rd") return wl::Pattern::kSeqRead;
  if (s == "seq_wr") return wl::Pattern::kSeqWrite;
  if (s == "copy") return wl::Pattern::kCopy;
  if (s == "rnd_rd") return wl::Pattern::kRandomRead;
  if (s == "rnd_wr") return wl::Pattern::kRandomWrite;
  if (s == "strided") return wl::Pattern::kStrided;
  throw ConfigError("unknown pattern '" + s + "'");
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

    const std::string preset = args.get("preset", "zcu102");
    const std::string critical = args.get("critical", "latency");
    const auto aggressors =
        static_cast<std::size_t>(args.get_int("aggressors", 4));
    const wl::Pattern pattern = pattern_from(args.get("pattern", "seq_rd"));
    const std::string scheme = args.get("scheme", "none");
    const double budget_bps = args.get_double("budget-mbps", 400) * 1e6;
    const double window_us = args.get_double("window-us", 1);
    const double duration_ms = args.get_double("duration-ms", 20);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 100));
    const std::string csv = args.get("csv", "");
    const std::string trace_path = args.get("trace", "");
    const std::string trace_filter = args.get("trace-filter", "");
    const std::string metrics_json = args.get("metrics-json", "");
    const std::string metrics_csv = args.get("metrics-csv", "");
    const std::string blame_csv = args.get("blame-csv", "");
    const std::string blame_json = args.get("blame-json", "");
    const double blame_window_us = args.get_double("blame-window-us", 100);
    const double sla_min_mbps = args.get_double("sla-min-mbps", 0);
    const double sla_p99_us = args.get_double("sla-p99-us", 0);
    const double sla_stall_frac = args.get_double("sla-stall-frac", 0);
    const std::string fault_spec = args.get("fault-spec", "");
    const std::string envelope_spec_path = args.get("envelope-spec", "");
    const std::string serving_spec_path = args.get("serving-spec", "");
    const std::string mapping = args.get("mapping", "");
    const std::string bank_spec_path = args.get("bank-budget-spec", "");
    const bool bank_telemetry = args.has("bank-telemetry");
    const double aggressor_footprint_mb =
        args.get_double("aggressor-footprint-mb", 16);
    if (aggressor_footprint_mb <= 0) {
      throw ConfigError("--aggressor-footprint-mb must be positive");
    }
    const double aggressor_stride_mb =
        args.get_double("aggressor-stride-mb", 64);
    if (aggressor_stride_mb <= 0) {
      throw ConfigError("--aggressor-stride-mb must be positive");
    }
    const auto thrash_aggressors =
        static_cast<std::size_t>(args.get_int("thrash-aggressors", 0));
    if (thrash_aggressors > aggressors) {
      throw ConfigError("--thrash-aggressors exceeds --aggressors");
    }
    const double wd_fallback_mbps =
        args.get_double("watchdog-fallback-mbps", 0);
    const std::string timeseries_csv = args.get("timeseries-csv", "");
    const std::string timeseries_json = args.get("timeseries-json", "");
    const std::string timeseries_filter = args.get("timeseries-filter", "");
    const double timeseries_window_us =
        args.get_double("timeseries-window-us", 100);
    const std::string journal_path = args.get("journal", "");
    const std::string profile_json = args.get("profile-json", "");
    const std::string profile_folded = args.get("profile-folded", "");
    const bool profile_on =
        args.has("profile") || !profile_json.empty() || !profile_folded.empty();
    const bool want_timeseries =
        !timeseries_csv.empty() || !timeseries_json.empty();
    if (trace_path.empty() && !trace_filter.empty()) {
      throw ConfigError("--trace-filter requires --trace");
    }
    if (!want_timeseries &&
        (!timeseries_filter.empty() || args.has("timeseries-window-us"))) {
      throw ConfigError(
          "--timeseries-filter/--timeseries-window-us require "
          "--timeseries-csv or --timeseries-json");
    }
    const bool want_sla =
        sla_min_mbps > 0 || sla_p99_us > 0 || sla_stall_frac > 0;
    const bool want_blame =
        !blame_csv.empty() || !blame_json.empty() || want_sla;
    if (wd_fallback_mbps > 0 && scheme != "hw") {
      throw ConfigError("--watchdog-fallback-mbps requires --scheme hw");
    }
    if (!envelope_spec_path.empty() && scheme != "hw") {
      throw ConfigError("--envelope-spec requires --scheme hw");
    }
    for (const auto& k : args.unused_keys()) {
      throw ConfigError("unknown option --" + k + " (see --help)");
    }

    soc::SocConfig cfg = soc::preset_by_name(preset);
    // Config knobs must land before the Soc exists: the controller's
    // address mapper and the telemetry gating are fixed at construction.
    if (!mapping.empty()) {
      cfg.dram.mapping = dram::mapping_policy_from_name(mapping);
    }
    if (bank_telemetry) {
      cfg.bank_telemetry = true;
    }
    cfg.profile = profile_on;
    soc::Soc chip(cfg);

    // Provenance embedded in every export: semantic inputs only, so two
    // runs of the same scenario carry byte-identical manifests.
    telemetry::RunManifest manifest;
    manifest.tool = "fgqos_sim";
    manifest.seed = seed;
    manifest.build = telemetry::RunManifest::build_flavor();
    if (profile_on) {
      manifest.profile_tag_table_version = telemetry::kProfilerTagTableVersion;
    }
    {
      std::ostringstream sc;
      sc << "preset=" << preset << " critical=" << critical
         << " aggressors=" << aggressors << " pattern="
         << args.get("pattern", "seq_rd") << " scheme=" << scheme
         << " budget_mbps=" << budget_bps / 1e6 << " window_us=" << window_us
         << " duration_ms=" << duration_ms;
      // Conditional tokens keep manifests of pre-existing scenarios
      // byte-identical (golden compatibility).
      if (!mapping.empty()) {
        sc << " mapping=" << mapping;
      }
      if (bank_telemetry) {
        sc << " bank_telemetry=1";
      }
      if (args.has("aggressor-footprint-mb")) {
        sc << " aggressor_footprint_mb=" << aggressor_footprint_mb;
      }
      if (args.has("aggressor-stride-mb")) {
        sc << " aggressor_stride_mb=" << aggressor_stride_mb;
      }
      if (thrash_aggressors > 0) {
        sc << " thrash_aggressors=" << thrash_aggressors;
      }
      manifest.scenario = sc.str();
    }

    if (critical == "latency") {
      cpu::CoreConfig cc;
      cc.name = "critical";
      chip.add_core(cc, wl::make_pointer_chase({}));
    } else if (critical == "stream") {
      cpu::CoreConfig cc;
      cc.name = "critical";
      chip.add_core(cc, wl::make_stream({}));
    } else if (critical != "none") {
      throw ConfigError("unknown critical workload '" + critical + "'");
    }

    std::unique_ptr<qos::SoftMemguard> memguard;
    if (scheme == "sw") {
      memguard = std::make_unique<qos::SoftMemguard>(
          chip.sim(), qos::SoftMemguardConfig{});
    } else if (scheme != "none" && scheme != "hw") {
      throw ConfigError("unknown scheme '" + scheme + "'");
    }

    if (!journal_path.empty()) {
      telemetry::DecisionJournal& journal = chip.enable_journal();
      if (memguard != nullptr) {
        memguard->set_journal(&journal);
      }
    }

    // Certified-envelope admission: regulated ports are programmed through
    // a QosManager sized from the envelope's certification run, so the
    // per-port budgets pass (or fail) real admission control.
    std::unique_ptr<qos::CertifiedEnvelope> envelope;
    std::unique_ptr<qos::QosManager> manager;
    if (!envelope_spec_path.empty()) {
      envelope = std::make_unique<qos::CertifiedEnvelope>(
          qos::CertifiedEnvelope::from_file(envelope_spec_path));
      manifest.scenario +=
          " envelope=" + telemetry::fnv1a_hex(envelope->to_json());
      qos::QosManagerConfig mc;
      mc.capacity_bps = envelope->capacity_bps;
      mc.max_reservable_frac = envelope->max_reservable_frac;
      manager = std::make_unique<qos::QosManager>(chip.sim(), mc);
      manager->set_envelope(envelope.get());
      manager->set_metrics(&chip.telemetry().metrics());
      if (telemetry::DecisionJournal* j = chip.journal()) {
        manager->set_journal(j);
      }
    }

    std::vector<std::size_t> managed_ports;
    for (std::size_t i = 0; i < aggressors; ++i) {
      wl::TrafficGenConfig tg;
      tg.name = "agg" + std::to_string(i);
      tg.pattern = pattern;
      tg.base = 0x8000'0000 +
                static_cast<axi::Addr>(i) *
                    static_cast<axi::Addr>(aggressor_stride_mb * (1 << 20));
      tg.footprint_bytes =
          static_cast<std::uint64_t>(aggressor_footprint_mb * (1 << 20));
      tg.seed = seed + i;
      if (i < thrash_aggressors) {
        // Single-line bursts open a fresh row on every access; the deep
        // outstanding window keeps the target bank's miss pipeline full.
        tg.pattern = wl::Pattern::kRandomRead;
        tg.burst_bytes = 64;
        tg.max_outstanding = 48;
      }
      const std::size_t port = i % cfg.accel_ports;
      chip.add_traffic_gen(port, tg);
      if (scheme == "hw") {
        qos::Regulator& reg = *chip.qos_block(1 + port).regulator;
        reg.set_window(static_cast<sim::TimePs>(window_us * 1e6));
        if (manager != nullptr) {
          // The manager owns rate programming: this port's budget goes
          // through reserve() below instead of being forced on directly.
          if (std::find(managed_ports.begin(), managed_ports.end(), port) ==
              managed_ports.end()) {
            managed_ports.push_back(port);
          }
        } else {
          reg.set_rate(budget_bps);
          reg.set_enabled(true);
        }
      } else if (scheme == "sw") {
        axi::MasterPort& mp = chip.accel_port(port);
        memguard->set_rate(mp.id(), budget_bps);
        mp.add_gate(*memguard);
      }
    }

    if (manager != nullptr) {
      std::size_t rejected = 0;
      for (const std::size_t port : managed_ports) {
        axi::MasterPort& mp = chip.accel_port(port);
        manager->add_port(mp.name(), mp.id(), chip.regfile(1 + port));
        const bool admitted = manager->reserve(mp.id(), budget_bps);
        std::printf("admission: %s reserve %.0f MB/s -> %s\n",
                    mp.name().c_str(), budget_bps / 1e6,
                    admitted ? "accepted" : "REJECTED");
        if (!admitted) {
          ++rejected;
        }
      }
      if (rejected > 0) {
        std::printf("admission: %zu reservation(s) rejected against the "
                    "certified envelope; rejected ports run best-effort\n",
                    rejected);
      }
    }

    if (!bank_spec_path.empty()) {
      const qos::BankBudgetSpec bspec = qos::BankBudgetSpec::load(bank_spec_path);
      manifest.scenario +=
          " bank_budgets=" + telemetry::fnv1a_hex(bspec.to_json());
      const std::size_t regs = chip.apply_bank_budgets(bspec);
      std::printf("per-bank regulation: %zu port regulator(s) armed\n", regs);
    }

    if (!serving_spec_path.empty()) {
      const wl::ServingSpec sspec =
          wl::ServingSpec::from_file(serving_spec_path);
      // Fold the scenario into the manifest so exports from different
      // serving specs are distinguishable (semantic input, not a path).
      manifest.scenario +=
          " serving=" + telemetry::fnv1a_hex(sspec.to_json());
      chip.add_serving(sspec, seed);
    }

    if (!fault_spec.empty()) {
      fault::FaultPlan plan = fault::FaultPlan::from_file(fault_spec);
      manifest.fault_spec_hash = telemetry::fnv1a_hex(plan.to_json());
      fault::FaultInjector& inj = chip.arm_faults(std::move(plan), seed);
      if (memguard != nullptr) {
        inj.wire_memguard(*memguard);
      }
    }
    if (wd_fallback_mbps > 0) {
      const auto window_ps = static_cast<sim::TimePs>(window_us * 1e6);
      for (std::size_t port = 0;
           port < std::min(aggressors, cfg.accel_ports); ++port) {
        qos::RegulatorWatchdogConfig wc;
        wc.name = "wd" + std::to_string(port);
        wc.check_period_ps = 4 * window_ps;
        wc.fallback_budget_bytes =
            qos::budget_for_rate(wd_fallback_mbps * 1e6, window_ps);
        chip.add_regulator_watchdog(1 + port, wc);
      }
    }

    if (!trace_path.empty()) {
      chip.open_trace(trace_path, trace_filter);
      if (memguard != nullptr) {
        memguard->set_trace(chip.telemetry().trace());
      }
    } else if (!metrics_json.empty() || !metrics_csv.empty()) {
      chip.enable_lifecycle_metrics();  // per-hop histograms without a trace
    }

    std::unique_ptr<qos::SlaWatchdog> watchdog;
    if (want_blame) {
      telemetry::AttributionEngine& engine = chip.enable_attribution(
          static_cast<sim::TimePs>(blame_window_us * 1e6));
      if (want_sla) {
        qos::SlaSpec spec;
        spec.min_bandwidth_mbps = sla_min_mbps;
        spec.max_p99_latency_ps = static_cast<sim::TimePs>(sla_p99_us * 1e6);
        spec.max_interference_fraction = sla_stall_frac;
        watchdog = std::make_unique<qos::SlaWatchdog>(
            engine, chip.telemetry().metrics());
        watchdog->watch(chip.cpu_port(), spec);
        if (chip.telemetry().tracing()) {
          watchdog->set_trace(chip.telemetry().trace());
        }
        if (fault::FaultInjector* inj = chip.faults()) {
          // Violation reports name whichever fault was live at the time.
          watchdog->set_fault_probe([inj](sim::TimePs t) {
            return inj->active_faults(t);
          });
        }
        if (telemetry::DecisionJournal* j = chip.journal()) {
          watchdog->set_journal(j);
        }
        if (envelope != nullptr) {
          watchdog->set_envelope(envelope.get(), manager.get());
        }
      }
    }

    if (want_timeseries) {
      // After workload setup and attribution so every standard series
      // (including attr.* stall time) is there to be probed.
      telemetry::TimeSeriesConfig tc;
      tc.window_ps = static_cast<sim::TimePs>(timeseries_window_us * 1e6);
      tc.filter = timeseries_filter;
      chip.enable_timeseries(std::move(tc));
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

    if (memguard != nullptr) {
      memguard->flush_trace(chip.now());
    }
    chip.finish_telemetry();

    sim::StatsRegistry stats;
    chip.collect_stats(stats);
    util::Table table({"stat", "value"});
    for (const auto& [name, value] : stats.all()) {
      table.add_row({name, value});
    }
    std::printf("scenario: preset=%s critical=%s aggressors=%zu pattern=%s "
                "scheme=%s\n",
                preset.c_str(), critical.c_str(), aggressors,
                args.get("pattern", "seq_rd").c_str(), scheme.c_str());
    std::printf("simulated %s, DRAM bandwidth %s, bus utilisation %.1f%%\n\n",
                util::format_time_ps(chip.now()).c_str(),
                util::format_bandwidth(chip.dram_bandwidth_bps()).c_str(),
                stats.get("dram.bus_utilization") * 100);
    table.print();
    if (!csv.empty()) {
      table.save_csv(csv);
      std::printf("\nCSV written to %s\n", csv.c_str());
    }
    if (!metrics_json.empty()) {
      chip.collect_metrics().save_json(metrics_json, chip.now(), &manifest);
      std::printf("\nmetrics JSON written to %s\n", metrics_json.c_str());
    }
    if (!metrics_csv.empty()) {
      chip.collect_metrics().save_csv(metrics_csv, &manifest);
      std::printf("\nmetrics CSV written to %s\n", metrics_csv.c_str());
    }
    if (!timeseries_csv.empty()) {
      chip.timeseries()->save_csv(timeseries_csv, &manifest);
      std::printf("\ntime-series CSV written to %s (%llu windows)\n",
                  timeseries_csv.c_str(),
                  static_cast<unsigned long long>(
                      chip.timeseries()->windows_sampled()));
    }
    if (!timeseries_json.empty()) {
      chip.timeseries()->save_json(timeseries_json, &manifest);
      std::printf("\ntime-series JSON written to %s\n",
                  timeseries_json.c_str());
    }
    if (!journal_path.empty()) {
      chip.journal()->save_jsonl(journal_path, &manifest);
      std::printf("\ndecision journal written to %s (%zu entries)\n",
                  journal_path.c_str(), chip.journal()->size());
    }
    if (profile_on) {
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
      if (!profile_json.empty()) {
        prof.save_json(profile_json, &manifest);
        std::printf("profile JSON written to %s\n", profile_json.c_str());
      }
      if (!profile_folded.empty()) {
        prof.save_folded(profile_folded);
        std::printf("folded stacks written to %s\n", profile_folded.c_str());
      }
    }
    if (!blame_csv.empty()) {
      chip.attribution()->save_csv(blame_csv);
      std::printf("\nblame CSV written to %s\n", blame_csv.c_str());
    }
    if (!blame_json.empty()) {
      chip.attribution()->save_json(blame_json);
      std::printf("\nblame JSON written to %s\n", blame_json.c_str());
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
        wl::ServingTenant& t = chip.serving_tenant(i);
        std::printf("  %-12s %-8s %12.0f %12.0f %9llu %9.2f %9.2f %9.2f "
                    "%10s\n",
                    t.spec().name.c_str(),
                    wl::arrival_kind_name(t.spec().arrival), t.offered_qps(),
                    t.completed_qps(),
                    static_cast<unsigned long long>(t.stats().dropped),
                    static_cast<double>(t.latency().p50()) / 1e6,
                    static_cast<double>(t.latency().p99()) / 1e6,
                    static_cast<double>(t.latency().p999()) / 1e6,
                    wl::attainment_pct_cell(t, 2).c_str());
      }
    }
    if (watchdog != nullptr) {
      std::ostringstream report;
      watchdog->write_report(report);
      std::printf("\n%s", report.str().c_str());
    }
    if (manager != nullptr && manager->envelope_fallback()) {
      std::printf("\nWARNING: certified envelope violated during the run — "
                  "manager degraded to conservative fallback budgets\n");
    }
    if (!trace_path.empty()) {
      std::printf("\ntrace written to %s (%zu events)\n", trace_path.c_str(),
                  chip.telemetry().trace()->events_written());
    }
    return 0;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

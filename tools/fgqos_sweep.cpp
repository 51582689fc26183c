/// \file fgqos_sweep.cpp
/// \brief Parameter-sweep driver: vary one knob, collect the outcome CSV.
///
/// Sweeps one of {budget, window, aggressors, isr} for a fixed scenario
/// (latency-critical CPU task + N regulated aggressors) and writes one
/// CSV row per point: knob value, critical mean/p99 iteration time,
/// critical read p99 and aggregate aggressor bandwidth. The building
/// block for custom plots beyond the canned bench_exp* binaries.
///
/// Points are independent simulations, so the sweep fans out over the
/// exec::ScenarioRunner: `--jobs N` (or FGQOS_JOBS) runs N points
/// concurrently, `--jobs 0` uses every hardware thread. Each point's RNG
/// seeds derive only from `--seed` and the point's position, and rows
/// are merged in submission order, so the CSV and the per-point metrics
/// snapshots are byte-identical whatever the job count (the wall-clock
/// `exec.*` metrics are the one place host timing shows up).
///
/// Examples:
///   fgqos_sweep --knob budget --values 100,200,400,800,1600 --csv b.csv
///   fgqos_sweep --knob window --values 0.2,1,10,100,1000 --scheme hw
///   fgqos_sweep --knob aggressors --values 0,1,2,3,4 --scheme none
///   fgqos_sweep --knob isr --values 1,3,10,50 --scheme sw --jobs 4
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <map>

#include "dram/address_mapper.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fgqos.hpp"
#include "qos/bank_budget_spec.hpp"
#include "qos/envelope.hpp"
#include "qos/qos_manager.hpp"
#include "telemetry/manifest.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "workload/serving.hpp"

using namespace fgqos;

namespace {

/// Signal handler target: request_stop() is one atomic store, so running
/// jobs wind down cooperatively and unclaimed points are skipped; the
/// merged CSV is still written from whatever completed.
exec::ScenarioRunner* g_runner = nullptr;

extern "C" void on_signal(int) {
  if (g_runner != nullptr) {
    g_runner->request_stop();
  }
}

struct Outcome {
  double iter_mean_us = 0;
  double iter_p99_us = 0;
  double read_p99_ns = 0;
  double aggr_gbps = 0;
  /// Pre-rendered blame-matrix CSV rows ("<point>,scope,..."), empty when
  /// attribution is off. Merged in submission order by main(), so the
  /// combined file is byte-identical for any job count.
  std::string blame_rows;
  /// Pre-rendered time-series CSV rows ("<point>,series,..."), merged the
  /// same way.
  std::string timeseries_rows;
  /// Pre-rendered per-tenant serving CSV rows ("<point>,tenant,..."),
  /// merged the same way.
  std::string serving_rows;
  /// Reservations refused by certified-envelope admission control in this
  /// point (jobs never print; main() warns after the deterministic merge).
  std::size_t admission_rejections = 0;
  /// Per-series whole-run histograms, for the sweep-level merged summary
  /// (folded in submission order, so the summary is deterministic for any
  /// job count).
  std::vector<std::pair<std::string, sim::Histogram>> series_summaries;
  /// Host-profile snapshot of this point (--profile); merged in submission
  /// order by main() into one sweep-level profile, so the merged export is
  /// identical for any job count.
  telemetry::ProfileSnapshot profile;
  bool has_profile = false;
};

struct SweepPoint {
  std::string scheme = "hw";
  std::size_t aggressors = 3;
  double budget_mbps = 400;
  double window_us = 1;
  double isr_us = 3;
  std::uint64_t iterations = 20;
  /// Per-point base for the aggressor RNG streams; filled from the job
  /// context so it depends only on --seed and the point index.
  std::uint64_t seed = 0;
  /// Per-point telemetry outputs (empty = off); already suffixed with the
  /// knob value so sweep points do not overwrite each other.
  std::string trace_path;
  std::string trace_filter;
  std::string metrics_json;
  std::string metrics_csv;
  /// Interference attribution (off unless requested).
  bool blame = false;
  double blame_window_us = 100;
  std::string blame_json;   ///< per-point file, already suffixed
  std::string point_label;  ///< knob value, used as the blame-row prefix
  /// Windowed time-series capture (off unless requested).
  bool timeseries = false;
  bool merge_timeseries_csv = false;  ///< render rows for the merged CSV
  std::string timeseries_json;        ///< per-point file, already suffixed
  std::string timeseries_filter;
  double timeseries_window_us = 100;
  /// Per-point decision-journal JSONL (empty = off), already suffixed.
  std::string journal_path;
  /// Sweep knob name, recorded in the per-point manifest scenario.
  std::string knob;
  /// Shared fault plan (nullptr = no faults). Each point arms its own
  /// injector from its derived seed, so fault streams are reproducible
  /// per point and independent of the job count.
  const fault::FaultPlan* faults = nullptr;
  /// Shared serving scenario (nullptr = none). Each point instantiates
  /// its tenants with serving_tenant_seed(spec.seed, point seed, index),
  /// so op buffers are byte-identical for any job count.
  const wl::ServingSpec* serving = nullptr;
  bool merge_serving_csv = false;  ///< render rows for the merged CSV
  /// DRAM mapping-policy override ("" = platform default).
  std::string mapping;
  /// Publish per-bank telemetry (dram.bank.*, blame bank dimension).
  bool bank_telemetry = false;
  /// Aggressor working-set size per generator.
  std::uint64_t aggressor_footprint_bytes = 16ull << 20;
  /// Shared per-bank budget plan (nullptr = no per-bank regulation).
  /// Points only read it, so one parsed spec serves every job.
  const qos::BankBudgetSpec* bank_budgets = nullptr;
  /// Shared certified envelope (nullptr = direct regulator programming).
  /// When set, hw-scheme budgets are admitted through a QosManager that
  /// enforces the certified bounds; rejected ports run best-effort.
  const qos::CertifiedEnvelope* envelope = nullptr;
  /// Attach the host profiler to this point's platform.
  bool profile = false;
};

/// "out.json" + budget=400 -> "out.budget400.json".
std::string point_path(const std::string& path, const std::string& knob,
                       const std::string& value) {
  if (path.empty()) {
    return path;
  }
  const std::string tag = "." + knob + value;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

Outcome run_point(const SweepPoint& p) {
  soc::SocConfig cfg;
  // Must land before the Soc exists: the controller's address mapper and
  // the telemetry gating are fixed at construction.
  if (!p.mapping.empty()) {
    cfg.dram.mapping = dram::mapping_policy_from_name(p.mapping);
  }
  if (p.bank_telemetry) {
    cfg.bank_telemetry = true;
  }
  cfg.profile = p.profile;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = p.iterations;
  wl::PointerChaseConfig pc;
  chip.add_core(cc, wl::make_pointer_chase(pc));
  std::unique_ptr<qos::SoftMemguard> mg;
  if (p.scheme == "sw") {
    qos::SoftMemguardConfig mc;
    mc.isr_latency_ps = static_cast<sim::TimePs>(p.isr_us * 1e6);
    mg = std::make_unique<qos::SoftMemguard>(chip.sim(), mc);
  }
  std::vector<std::size_t> managed_ports;
  for (std::size_t i = 0; i < p.aggressors; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
    tg.footprint_bytes = p.aggressor_footprint_bytes;
    tg.seed = p.seed + i;
    const std::size_t port = i % cfg.accel_ports;
    chip.add_traffic_gen(port, tg);
    if (p.scheme == "hw") {
      qos::Regulator& reg = *chip.qos_block(1 + port).regulator;
      reg.set_window(static_cast<sim::TimePs>(p.window_us * 1e6));
      if (p.envelope != nullptr) {
        // Budgets go through certified admission below; rate programming
        // lands on exactly the same registers, so an all-accepted sweep
        // is byte-identical to the direct path.
        if (std::find(managed_ports.begin(), managed_ports.end(), port) ==
            managed_ports.end()) {
          managed_ports.push_back(port);
        }
      } else {
        reg.set_rate(p.budget_mbps * 1e6);
        reg.set_enabled(true);
      }
    } else if (p.scheme == "sw") {
      axi::MasterPort& mp = chip.accel_port(port);
      mg->set_rate(mp.id(), p.budget_mbps * 1e6);
      mp.add_gate(*mg);
    }
  }
  if (p.bank_budgets != nullptr) {
    chip.apply_bank_budgets(*p.bank_budgets);
  }
  if (p.serving != nullptr) {
    chip.add_serving(*p.serving, p.seed);
  }
  if (p.faults != nullptr) {
    fault::FaultInjector& inj = chip.arm_faults(*p.faults, p.seed);
    if (mg != nullptr) {
      inj.wire_memguard(*mg);
    }
  }
  if (!p.trace_path.empty()) {
    chip.open_trace(p.trace_path, p.trace_filter);
    if (mg != nullptr) {
      mg->set_trace(chip.telemetry().trace());
    }
  } else if (!p.metrics_json.empty() || !p.metrics_csv.empty()) {
    chip.enable_lifecycle_metrics();
  }
  if (p.blame) {
    chip.enable_attribution(
        static_cast<sim::TimePs>(p.blame_window_us * 1e6));
  }
  if (p.timeseries) {
    telemetry::TimeSeriesConfig tc;
    tc.window_ps = static_cast<sim::TimePs>(p.timeseries_window_us * 1e6);
    tc.filter = p.timeseries_filter;
    chip.enable_timeseries(std::move(tc));
  }
  if (!p.journal_path.empty()) {
    telemetry::DecisionJournal& journal = chip.enable_journal();
    if (mg != nullptr) {
      mg->set_journal(&journal);
    }
  }
  std::size_t admission_rejections = 0;
  std::unique_ptr<qos::QosManager> manager;
  if (p.envelope != nullptr && p.scheme == "hw") {
    qos::QosManagerConfig mc;
    mc.capacity_bps = p.envelope->capacity_bps;
    mc.max_reservable_frac = p.envelope->max_reservable_frac;
    manager = std::make_unique<qos::QosManager>(chip.sim(), mc);
    manager->set_envelope(p.envelope);
    manager->set_metrics(&chip.telemetry().metrics());
    if (telemetry::DecisionJournal* j = chip.journal()) {
      manager->set_journal(j);
    }
    for (const std::size_t port : managed_ports) {
      axi::MasterPort& mp = chip.accel_port(port);
      manager->add_port(mp.name(), mp.id(), chip.regfile(1 + port));
      if (!manager->reserve(mp.id(), p.budget_mbps * 1e6)) {
        ++admission_rejections;
      }
    }
  }
  // Per-point provenance: depends only on the scenario and the derived
  // seed, never on job fan-out, so exports stay byte-identical across
  // --jobs.
  telemetry::RunManifest manifest;
  manifest.tool = "fgqos_sweep";
  manifest.seed = p.seed;
  manifest.build = telemetry::RunManifest::build_flavor();
  if (p.profile) {
    manifest.profile_tag_table_version = telemetry::kProfilerTagTableVersion;
  }
  {
    std::ostringstream sc;
    sc << "knob=" << p.knob << " value=" << p.point_label
       << " scheme=" << p.scheme << " aggressors=" << p.aggressors
       << " budget_mbps=" << p.budget_mbps << " window_us=" << p.window_us
       << " isr_us=" << p.isr_us << " iterations=" << p.iterations;
    // Conditional tokens keep manifests of pre-existing scenarios
    // byte-identical (golden compatibility).
    if (!p.mapping.empty()) {
      sc << " mapping=" << p.mapping;
    }
    if (p.bank_telemetry) {
      sc << " bank_telemetry=1";
    }
    if (p.aggressor_footprint_bytes != (16ull << 20)) {
      sc << " aggressor_footprint_bytes=" << p.aggressor_footprint_bytes;
    }
    manifest.scenario = sc.str();
  }
  if (p.bank_budgets != nullptr) {
    manifest.scenario +=
        " bank_budgets=" + telemetry::fnv1a_hex(p.bank_budgets->to_json());
  }
  if (p.faults != nullptr) {
    manifest.fault_spec_hash = telemetry::fnv1a_hex(p.faults->to_json());
  }
  if (p.serving != nullptr) {
    manifest.scenario +=
        " serving=" + telemetry::fnv1a_hex(p.serving->to_json());
  }
  if (p.envelope != nullptr) {
    manifest.scenario +=
        " envelope=" + telemetry::fnv1a_hex(p.envelope->to_json());
  }
  chip.run_until_cores_finished(2000 * sim::kPsPerMs);
  if (p.serving != nullptr) {
    // Cover the whole arrival horizon, then give in-flight requests a
    // bounded drain (sim-time based, so deterministic for any --jobs).
    if (chip.now() < p.serving->duration_ps) {
      chip.run_until(p.serving->duration_ps);
    }
    const sim::TimePs drain_deadline = chip.now() + 10 * sim::kPsPerMs;
    while (chip.now() < drain_deadline) {
      bool all_drained = true;
      for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
        all_drained = all_drained && chip.serving_tenant(i).drained();
      }
      if (all_drained) {
        break;
      }
      chip.run_for(100 * sim::kPsPerUs);
    }
  }
  if (mg != nullptr) {
    mg->flush_trace(chip.now());
  }
  chip.finish_telemetry();
  if (!p.metrics_json.empty() || !p.metrics_csv.empty()) {
    telemetry::MetricsRegistry& reg = chip.collect_metrics();
    // Host wall-clock self-profiling would make otherwise identical
    // points differ between runs; drop it so snapshots stay reproducible.
    // The profile namespace is host cycles too: the profile JSON/folded
    // exports carry that data instead.
    reg.erase_prefix("sim.wall");
    reg.erase_prefix("profile.");
    if (!p.metrics_json.empty()) {
      reg.save_json(p.metrics_json, chip.now(), &manifest);
    }
    if (!p.metrics_csv.empty()) {
      reg.save_csv(p.metrics_csv, &manifest);
    }
  }
  Outcome o;
  o.admission_rejections = admission_rejections;
  if (p.profile) {
    // collect_metrics samples the slab arenas into the profiler before
    // the snapshot is taken.
    chip.collect_metrics();
    o.profile = chip.profiler()->snapshot();
    o.has_profile = true;
  }
  if (p.timeseries) {
    telemetry::TimeSeriesRecorder* ts = chip.timeseries();
    if (!p.timeseries_json.empty()) {
      ts->save_json(p.timeseries_json, &manifest);
    }
    if (p.merge_timeseries_csv) {
      std::ostringstream rows;
      ts->write_csv(rows, /*header=*/false,
                    /*row_prefix=*/p.point_label + ",");
      o.timeseries_rows = rows.str();
    }
    for (std::size_t i = 0; i < ts->series_count(); ++i) {
      o.series_summaries.emplace_back(ts->series_names()[i], ts->summary(i));
    }
  }
  if (!p.journal_path.empty()) {
    chip.journal()->save_jsonl(p.journal_path, &manifest);
  }
  if (p.blame) {
    telemetry::AttributionEngine* attr = chip.attribution();
    if (!p.blame_json.empty()) {
      attr->save_json(p.blame_json);
    }
    std::ostringstream rows;
    attr->write_csv(rows, /*header=*/false, /*row_prefix=*/p.point_label + ",");
    o.blame_rows = rows.str();
  }
  if (p.serving != nullptr && p.merge_serving_csv) {
    // Integer counts and integer ps-percentiles; the two rates and the
    // attainment are fixed-point renders of deterministic doubles — the
    // merged CSV must stay byte-identical across --jobs.
    std::ostringstream rows;
    for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
      wl::ServingTenant& t = chip.serving_tenant(i);
      const auto& ss = t.stats();
      rows << p.point_label << ',' << t.spec().name << ','
           << wl::arrival_kind_name(t.spec().arrival) << ',' << ss.generated
           << ',' << ss.completed << ',' << ss.dropped << ',' << ss.slo_met
           << ',' << util::format_fixed(t.offered_qps(), 2) << ','
           << util::format_fixed(t.completed_qps(), 2) << ','
           << t.latency().p50() << ',' << t.latency().p99() << ','
           << t.latency().p999() << ','
           << wl::attainment_pct_cell(t, 4) << '\n';
    }
    o.serving_rows = rows.str();
  }
  const auto& h = chip.cluster().core(0).stats().iteration_ps;
  o.iter_mean_us = h.mean() / 1e6;
  o.iter_p99_us = static_cast<double>(h.p99()) / 1e6;
  o.read_p99_ns =
      static_cast<double>(chip.cpu_port().stats().read_latency.p99()) / 1e3;
  double aggr = 0;
  for (std::size_t i = 0; i < std::min(p.aggressors, cfg.accel_ports); ++i) {
    aggr += sim::bytes_per_second(
        chip.accel_port(i).stats().bytes_granted.value(), chip.now());
  }
  o.aggr_gbps = aggr / 1e9;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    if (args.has("help")) {
      std::printf(
          "fgqos_sweep --knob budget|window|aggressors|isr "
          "--values v1,v2,... [--scheme hw|sw|none] [--aggressors N]\n"
          "            [--budget-mbps B] [--window-us W] [--isr-us I]\n"
          "            [--iterations N] [--csv FILE] [--jobs N] [--seed S]\n"
          "            [--trace FILE] [--trace-filter CATS] "
          "[--metrics-json FILE] [--metrics-csv FILE]\n"
          "            [--exec-metrics-json FILE]\n"
          "            [--blame-csv FILE] [--blame-json FILE] "
          "[--blame-window-us W]\n"
          "            [--timeseries-csv FILE] [--timeseries-json FILE]\n"
          "            [--timeseries-filter GLOBS] "
          "[--timeseries-window-us W]\n"
          "            [--journal FILE]\n"
          "            [--fault-spec FILE] [--job-timeout-s T] "
          "[--job-retries N]\n"
          "            [--serving-spec FILE] [--serving-csv FILE]\n"
          "            [--mapping row_bank_col|bank_interleaved|"
          "bank_partitioned]\n"
          "            [--bank-budget-spec FILE] [--bank-telemetry]\n"
          "            [--envelope-spec FILE]\n"
          "            [--aggressor-footprint-mb MB]\n"
          "            [--profile] [--profile-json FILE] "
          "[--profile-folded FILE]\n"
          "--serving-spec instantiates the same JSON request-serving\n"
          "scenario (docs/SERVING.md) in every point, tenant op buffers\n"
          "seeded per point; --serving-csv writes ONE merged per-tenant\n"
          "CSV with a leading `point` column, byte-identical for any job\n"
          "count.\n"
          "--fault-spec arms the same JSON fault plan (docs/FAULTS.md) in\n"
          "every point, seeded per point, so faulty sweeps stay\n"
          "deterministic for any job count. --job-timeout-s bounds each\n"
          "point's wall-clock time; timed-out or crashed points are\n"
          "retried --job-retries times with fresh seeds, and the CSV is\n"
          "still written from the points that succeeded (failed indices\n"
          "are reported). SIGINT/SIGTERM skip remaining points and flush\n"
          "partial results.\n"
          "--envelope-spec admits every point's hw-scheme budgets through a\n"
          "QosManager backed by the certified worst-case envelope\n"
          "(docs/CERTIFICATION.md); rejected reservations leave that port\n"
          "best-effort and are warned about after the merge. A sweep where\n"
          "every reservation is accepted is byte-identical to the direct\n"
          "programming path (requires --scheme hw).\n"
          "--bank-budget-spec arms per-bank token-bucket regulators from a\n"
          "JSON budget plan in every point; --mapping overrides the DRAM\n"
          "address-mapping policy, --bank-telemetry publishes dram.bank.*\n"
          "metrics/series and the blame bank dimension, and\n"
          "--aggressor-footprint-mb sizes each aggressor's working set\n"
          "(default 16).\n"
          "--blame-csv writes ONE merged interference-attribution CSV with a\n"
          "leading `point` column (the knob value); --blame-json writes one\n"
          "JSON file per point (suffixed like the other telemetry files).\n"
          "--timeseries-csv writes ONE merged windowed time-series CSV with\n"
          "a leading `point` column; --timeseries-json and --journal write\n"
          "one file per point (suffixed). A merged percentile summary per\n"
          "series (per-point histograms folded in point order) is printed\n"
          "after the sweep.\n"
          "--profile attaches the host-side hot-path profiler to every\n"
          "point; per-point snapshots are merged in submission order, so\n"
          "the ONE merged profile (--profile-json / --profile-folded) is\n"
          "identical for any job count (cycle values still vary run to\n"
          "run — they are host time).\n"
          "--jobs N runs N sweep points concurrently (0 = all hardware\n"
          "threads; FGQOS_JOBS sets the default); outcomes are merged in\n"
          "point order, so CSV and metrics files are byte-identical for\n"
          "any job count.\n"
          "Telemetry files get a per-point suffix: out.json -> "
          "out.budget400.json\n");
      return 0;
    }
    const std::string knob = args.get("knob", "budget");
    const std::string values_arg = args.get("values", "100,200,400,800,1600");
    SweepPoint base;
    base.scheme = args.get("scheme", "hw");
    base.aggressors =
        static_cast<std::size_t>(args.get_int("aggressors", 3));
    base.budget_mbps = args.get_double("budget-mbps", 400);
    base.window_us = args.get_double("window-us", 1);
    base.isr_us = args.get_double("isr-us", 3);
    base.iterations =
        static_cast<std::uint64_t>(args.get_int("iterations", 20));
    const std::string csv = args.get("csv", "");
    const std::string trace_path = args.get("trace", "");
    const std::string trace_filter = args.get("trace-filter", "");
    const std::string metrics_json = args.get("metrics-json", "");
    const std::string metrics_csv = args.get("metrics-csv", "");
    const std::string exec_metrics_json = args.get("exec-metrics-json", "");
    const std::string blame_csv = args.get("blame-csv", "");
    const std::string blame_json = args.get("blame-json", "");
    const double blame_window_us = args.get_double("blame-window-us", 100);
    const std::string timeseries_csv = args.get("timeseries-csv", "");
    const std::string timeseries_json = args.get("timeseries-json", "");
    const std::string timeseries_filter = args.get("timeseries-filter", "");
    const double timeseries_window_us =
        args.get_double("timeseries-window-us", 100);
    const std::string journal_path = args.get("journal", "");
    const std::string profile_json = args.get("profile-json", "");
    const std::string profile_folded = args.get("profile-folded", "");
    const bool profile_on = args.has("profile") || !profile_json.empty() ||
                            !profile_folded.empty();
    const bool want_timeseries =
        !timeseries_csv.empty() || !timeseries_json.empty();
    const std::string fault_spec = args.get("fault-spec", "");
    const std::string serving_spec_path = args.get("serving-spec", "");
    const std::string serving_csv = args.get("serving-csv", "");
    const std::string mapping = args.get("mapping", "");
    const std::string bank_spec_path = args.get("bank-budget-spec", "");
    const std::string envelope_spec_path = args.get("envelope-spec", "");
    const bool bank_telemetry = args.has("bank-telemetry");
    const double aggressor_footprint_mb =
        args.get_double("aggressor-footprint-mb", 16);
    if (aggressor_footprint_mb <= 0) {
      throw ConfigError("--aggressor-footprint-mb must be positive");
    }
    if (!mapping.empty()) {
      // Fail fast on a bad name here, before the job fan-out.
      static_cast<void>(dram::mapping_policy_from_name(mapping));
    }
    exec::ExecConfig ec;
    ec.jobs = static_cast<std::size_t>(args.get_int(
        "jobs", static_cast<std::int64_t>(exec::jobs_from_env(1))));
    ec.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 100));
    ec.job_timeout_s = args.get_double("job-timeout-s", 0);
    ec.max_retries =
        static_cast<std::uint32_t>(args.get_int("job-retries", 0));
    if (trace_path.empty() && !trace_filter.empty()) {
      throw ConfigError("--trace-filter requires --trace");
    }
    if (!want_timeseries &&
        (!timeseries_filter.empty() || args.has("timeseries-window-us"))) {
      throw ConfigError(
          "--timeseries-filter/--timeseries-window-us require "
          "--timeseries-csv or --timeseries-json");
    }
    if (!serving_csv.empty() && serving_spec_path.empty()) {
      throw ConfigError("--serving-csv requires --serving-spec");
    }
    if (!envelope_spec_path.empty() && base.scheme != "hw") {
      throw ConfigError("--envelope-spec requires --scheme hw");
    }
    for (const auto& k : args.unused_keys()) {
      throw ConfigError("unknown option --" + k + " (see --help)");
    }

    fault::FaultPlan fault_plan;
    if (!fault_spec.empty()) {
      fault_plan = fault::FaultPlan::from_file(fault_spec);
    }
    wl::ServingSpec serving_spec;
    if (!serving_spec_path.empty()) {
      serving_spec = wl::ServingSpec::from_file(serving_spec_path);
    }
    qos::BankBudgetSpec bank_budget_spec;
    if (!bank_spec_path.empty()) {
      bank_budget_spec = qos::BankBudgetSpec::load(bank_spec_path);
    }
    qos::CertifiedEnvelope envelope_spec;
    if (!envelope_spec_path.empty()) {
      envelope_spec = qos::CertifiedEnvelope::from_file(envelope_spec_path);
    }
    base.mapping = mapping;
    base.bank_telemetry = bank_telemetry;
    base.aggressor_footprint_bytes =
        static_cast<std::uint64_t>(aggressor_footprint_mb * (1 << 20));

    // Materialise every point first; jobs read only their own point.
    std::vector<std::string> values = util::split(values_arg, ',');
    std::vector<SweepPoint> points;
    points.reserve(values.size());
    for (const std::string& v : values) {
      SweepPoint p = base;
      const double value = std::stod(v);
      if (knob == "budget") {
        p.budget_mbps = value;
      } else if (knob == "window") {
        p.window_us = value;
      } else if (knob == "aggressors") {
        p.aggressors = static_cast<std::size_t>(value);
      } else if (knob == "isr") {
        p.isr_us = value;
      } else {
        throw ConfigError("unknown knob '" + knob + "'");
      }
      p.trace_path = point_path(trace_path, knob, v);
      p.trace_filter = trace_filter;
      p.metrics_json = point_path(metrics_json, knob, v);
      p.metrics_csv = point_path(metrics_csv, knob, v);
      p.blame = !blame_csv.empty() || !blame_json.empty();
      p.blame_window_us = blame_window_us;
      p.blame_json = point_path(blame_json, knob, v);
      p.point_label = v;
      p.timeseries = want_timeseries;
      p.merge_timeseries_csv = !timeseries_csv.empty();
      p.timeseries_json = point_path(timeseries_json, knob, v);
      p.timeseries_filter = timeseries_filter;
      p.timeseries_window_us = timeseries_window_us;
      p.journal_path = point_path(journal_path, knob, v);
      p.knob = knob;
      p.faults = fault_spec.empty() ? nullptr : &fault_plan;
      p.serving = serving_spec_path.empty() ? nullptr : &serving_spec;
      p.merge_serving_csv = !serving_csv.empty();
      p.bank_budgets = bank_spec_path.empty() ? nullptr : &bank_budget_spec;
      p.envelope = envelope_spec_path.empty() ? nullptr : &envelope_spec;
      p.profile = profile_on;
      points.push_back(std::move(p));
    }

    exec::ScenarioRunner runner(ec);
    g_runner = &runner;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::vector<Outcome> outcomes(points.size());
    std::vector<exec::ScenarioRunner::JobFn> batch;
    batch.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      batch.push_back([&outcomes, &points, &values,
                       &knob](const exec::JobContext& ctx) {
        SweepPoint p = points[ctx.index];
        p.seed = ctx.seed;
        outcomes[ctx.index] = run_point(p);
        std::printf("%s=%s done\n", knob.c_str(),
                    values[ctx.index].c_str());
      });
    }
    const exec::RunReport report = runner.run_report(std::move(batch));
    g_runner = nullptr;

    util::Table table({knob, "iter_mean_us", "iter_p99_us", "read_p99_ns",
                       "aggressor_GB/s"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (report.jobs[i].status != exec::JobStatus::kOk) {
        continue;  // partial results: only completed points become rows
      }
      const Outcome& o = outcomes[i];
      table.add_row({values[i], util::format_fixed(o.iter_mean_us, 1),
                     util::format_fixed(o.iter_p99_us, 1),
                     util::format_fixed(o.read_p99_ns, 0),
                     util::format_fixed(o.aggr_gbps, 2)});
    }
    std::printf("\n");
    table.print();
    if (!csv.empty()) {
      table.save_csv(csv);
      std::printf("\nCSV written to %s\n", csv.c_str());
    }
    if (!envelope_spec_path.empty()) {
      std::size_t rejected = 0;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (report.jobs[i].status == exec::JobStatus::kOk) {
          rejected += outcomes[i].admission_rejections;
        }
      }
      if (rejected > 0) {
        std::printf("\nWARNING: %zu reservation(s) rejected against the "
                    "certified envelope; those ports ran best-effort\n",
                    rejected);
      }
    }
    if (!blame_csv.empty()) {
      std::ofstream blame(blame_csv);
      if (!blame) {
        throw ConfigError("cannot open blame CSV '" + blame_csv + "'");
      }
      blame << "point,scope,window_start_ps,window_end_ps,victim,aggressor,"
               "cause,stall_ps,bytes\n";
      for (const Outcome& o : outcomes) {
        blame << o.blame_rows;
      }
      std::printf("blame CSV written to %s\n", blame_csv.c_str());
    }
    if (!timeseries_csv.empty()) {
      std::ofstream ts(timeseries_csv);
      if (!ts) {
        throw ConfigError("cannot open time-series CSV '" + timeseries_csv +
                          "'");
      }
      // Sweep-level manifest: the knob and its values ARE the scenario;
      // independent of --jobs, so the merged file stays byte-identical.
      telemetry::RunManifest manifest;
      manifest.tool = "fgqos_sweep";
      manifest.seed = ec.base_seed;
      manifest.build = telemetry::RunManifest::build_flavor();
      manifest.scenario = "knob=" + knob + " values=" + values_arg +
                          " scheme=" + base.scheme;
      if (!mapping.empty()) {
        manifest.scenario += " mapping=" + mapping;
      }
      if (!bank_spec_path.empty()) {
        manifest.scenario += " bank_budgets=" +
                             telemetry::fnv1a_hex(bank_budget_spec.to_json());
      }
      if (!fault_spec.empty()) {
        manifest.fault_spec_hash = telemetry::fnv1a_hex(fault_plan.to_json());
      }
      ts << manifest.to_csv_comment();
      ts << "point,series,window,start_ps,end_ps,value\n";
      for (const Outcome& o : outcomes) {
        ts << o.timeseries_rows;
      }
      std::printf("time-series CSV written to %s\n", timeseries_csv.c_str());
    }
    if (!serving_csv.empty()) {
      std::ofstream sv(serving_csv);
      if (!sv) {
        throw ConfigError("cannot open serving CSV '" + serving_csv + "'");
      }
      telemetry::RunManifest manifest;
      manifest.tool = "fgqos_sweep";
      manifest.seed = ec.base_seed;
      manifest.build = telemetry::RunManifest::build_flavor();
      manifest.scenario = "knob=" + knob + " values=" + values_arg +
                          " scheme=" + base.scheme + " serving=" +
                          telemetry::fnv1a_hex(serving_spec.to_json());
      if (!mapping.empty()) {
        manifest.scenario += " mapping=" + mapping;
      }
      if (!bank_spec_path.empty()) {
        manifest.scenario += " bank_budgets=" +
                             telemetry::fnv1a_hex(bank_budget_spec.to_json());
      }
      // An empty plan is contractually a perfect no-op, so it must not
      // perturb this file either: hash only plans that inject something.
      if (!fault_spec.empty() && !fault_plan.faults.empty()) {
        manifest.fault_spec_hash = telemetry::fnv1a_hex(fault_plan.to_json());
      }
      sv << manifest.to_csv_comment();
      sv << "point,tenant,arrival,generated,completed,dropped,slo_met,"
            "offered_qps,completed_qps,p50_ps,p99_ps,p999_ps,"
            "attainment_pct\n";
      for (const Outcome& o : outcomes) {
        sv << o.serving_rows;
      }
      std::printf("serving CSV written to %s\n", serving_csv.c_str());
    }
    if (want_timeseries) {
      // Sweep-level percentile summary: per-point whole-run histograms
      // folded with Histogram::merge in submission order — associative
      // bucket adds, so the table is identical for any job count.
      std::vector<std::string> order;
      std::map<std::string, sim::Histogram> merged;
      for (const Outcome& o : outcomes) {
        for (const auto& [name, h] : o.series_summaries) {
          auto [it, inserted] = merged.try_emplace(name);
          if (inserted) {
            order.push_back(name);
          }
          it->second.merge(h);
        }
      }
      util::Table summary({"series", "windows", "p50", "p99", "p999", "max"});
      for (const std::string& name : order) {
        const sim::Histogram& h = merged[name];
        summary.add_row({name, std::to_string(h.count()),
                         std::to_string(h.p50()), std::to_string(h.p99()),
                         std::to_string(h.p999()), std::to_string(h.max())});
      }
      std::printf("\nmerged time-series summary (all points):\n");
      summary.print();
    }
    if (profile_on) {
      // One sweep-level profile: per-point snapshots folded in submission
      // order (merge is commutative, so any fold order would agree — the
      // fixed order keeps the bytes identical for any job count).
      telemetry::ProfileSnapshot merged;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (report.jobs[i].status == exec::JobStatus::kOk &&
            outcomes[i].has_profile) {
          merged.merge(outcomes[i].profile);
        }
      }
      std::printf("\nhost profile: %llu events across %zu point(s), "
                  "coverage %.1f%%\n",
                  static_cast<unsigned long long>(merged.events_dispatched),
                  outcomes.size(), merged.coverage() * 100.0);
      telemetry::RunManifest manifest;
      manifest.tool = "fgqos_sweep";
      manifest.seed = ec.base_seed;
      manifest.build = telemetry::RunManifest::build_flavor();
      manifest.scenario = "knob=" + knob + " values=" + values_arg +
                          " scheme=" + base.scheme;
      manifest.profile_tag_table_version =
          telemetry::kProfilerTagTableVersion;
      if (!profile_json.empty()) {
        merged.save_json(profile_json, &manifest);
        std::printf("profile JSON written to %s\n", profile_json.c_str());
      }
      if (!profile_folded.empty()) {
        merged.save_folded(profile_folded);
        std::printf("folded stacks written to %s\n", profile_folded.c_str());
      }
    }
    if (runner.worker_count() > 1 || !report.all_ok()) {
      std::printf("\n%s\n", runner.summary().c_str());
    }
    if (!exec_metrics_json.empty()) {
      runner.metrics().save_json(exec_metrics_json, 0);
      std::printf("exec metrics written to %s\n", exec_metrics_json.c_str());
    }
    if (!report.all_ok()) {
      std::printf("%s\n", report.describe().c_str());
      for (const std::size_t i : report.failed_indices()) {
        std::fprintf(stderr, "point %s=%s %s after %u attempt(s): %s\n",
                     knob.c_str(), values[i].c_str(),
                     exec::job_status_name(report.jobs[i].status),
                     report.jobs[i].attempts,
                     report.jobs[i].error.c_str());
      }
      return runner.stop_requested() ? 130 : 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

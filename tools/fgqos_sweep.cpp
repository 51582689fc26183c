/// \file fgqos_sweep.cpp
/// \brief Parameter-sweep driver: vary one knob, collect the outcome CSV.
///
/// Sweeps one of {budget, window, aggressors, isr} for a fixed scenario
/// (latency-critical CPU task + N regulated aggressors) and writes one
/// row per point to the bundle's sweep.csv: knob value, critical
/// mean/p99 iteration time, critical read p99 and aggregate aggressor
/// bandwidth. The building block for custom plots beyond the canned
/// bench_exp* binaries.
///
/// Points are independent simulations, so the sweep fans out over the
/// exec::ScenarioRunner: `--jobs N` (or FGQOS_JOBS) runs N points
/// concurrently, `--jobs 0` uses every hardware thread. Each point's RNG
/// seeds derive only from `--seed` and the point's position, and rows
/// are merged in submission order, so the CSV and the per-point metrics
/// snapshots are byte-identical whatever the job count (exec_metrics.json
/// and the host profile are the one place host timing shows up).
///
/// Examples:
///   fgqos_sweep --knob budget --values 100,200,400,800,1600 --out b
///   fgqos_sweep --knob window --values 0.2,1,10,100,1000 --scheme hw
///   fgqos_sweep --knob aggressors --values 0,1,2,3,4 --scheme none
///   fgqos_sweep --knob isr --values 1,3,10,50 --scheme sw --jobs 4
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "fgqos.hpp"
#include "scenario/scenario.hpp"
#include "scenario/tool_args.hpp"
#include "telemetry/manifest.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

using namespace fgqos;

namespace {

/// Signal handler target: request_stop() is one atomic store, so running
/// points finish and unclaimed points are skipped; the merged CSV is
/// still written from whatever completed.
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
  /// merged the same way; empty without serving tenants.
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

/// One sweep point with the knob applied. The aggressors are added per
/// job: their seeds derive from the job's seed.
struct Point {
  std::string label;  ///< the knob value as given; prefixes merged rows
  std::size_t aggressors = 0;
  scenario::Spec spec;
  scenario::Observers observers;  ///< trace path already in the point dir
  std::string dir;  ///< the point's bundle, <out>/<knob><value> ("" = none)
  /// Provenance of the point's bundle; the seed is the job's.
  telemetry::RunManifest manifest;
};

Outcome run_point(const Point& point, std::uint64_t seed,
                  std::uint64_t footprint_bytes) {
  scenario::Spec spec = point.spec;
  spec.aggressors = scenario::standard_aggressors(
      point.aggressors, wl::Pattern::kSeqRead, seed, 64ull << 20,
      footprint_bytes);
  scenario::Scenario s = scenario::build(spec, point.observers, seed);
  soc::Soc& chip = *s.chip;
  chip.run_until_cores_finished(2000 * sim::kPsPerMs);
  if (spec.serving != nullptr) {
    // Cover the whole arrival horizon, then give in-flight requests a
    // bounded drain (sim-time based, so deterministic for any --jobs).
    if (chip.now() < spec.serving->duration_ps) {
      chip.run_until(spec.serving->duration_ps);
    }
    chip.run_until_serving_drained(chip.now() + 10 * sim::kPsPerMs);
  }
  s.finish();
  if (!point.dir.empty()) {
    // Per-point provenance: depends only on the scenario and the derived
    // seed, never on job fan-out, so the bundle stays byte-identical
    // across --jobs.
    telemetry::RunManifest manifest = point.manifest;
    manifest.seed = seed;
    s.write(point.dir, manifest, /*drop_host_timing=*/true);
  }

  Outcome o;
  o.admission_rejections = static_cast<std::size_t>(
      std::count(s.admitted.begin(), s.admitted.end(), false));
  if (point.observers.profile) {
    o.profile = chip.profiler()->snapshot();
    o.has_profile = true;
  }
  if (telemetry::TimeSeriesRecorder* ts = chip.timeseries()) {
    std::ostringstream rows;
    ts->write_csv(rows, /*header=*/false, /*row_prefix=*/point.label + ",");
    o.timeseries_rows = rows.str();
    for (std::size_t i = 0; i < ts->series_count(); ++i) {
      o.series_summaries.emplace_back(ts->series_names()[i], ts->summary(i));
    }
  }
  if (telemetry::AttributionEngine* attr = chip.attribution()) {
    std::ostringstream rows;
    attr->write_csv(rows, /*header=*/false, /*row_prefix=*/point.label + ",");
    o.blame_rows = rows.str();
  }
  if (chip.serving_tenant_count() > 0) {
    // Integer counts and integer ps-percentiles; the two rates and the
    // attainment are fixed-point renders of deterministic doubles — the
    // merged CSV must stay byte-identical across --jobs.
    std::ostringstream rows;
    for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
      wl::ServingTenant& t = chip.serving_tenant(i);
      const auto& ss = t.stats();
      rows << point.label << ',' << t.spec().name << ','
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
  const auto& h = s.critical->stats().iteration_ps;
  o.iter_mean_us = h.mean() / 1e6;
  o.iter_p99_us = static_cast<double>(h.p99()) / 1e6;
  o.read_p99_ns =
      static_cast<double>(chip.cpu_port().stats().read_latency.p99()) / 1e3;
  o.aggr_gbps = s.aggressor_bps() / 1e9;
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
          "            [--iterations N] [--jobs N] [--seed S]\n"
          "            [--out DIR] [--trace] [--trace-filter CATS]\n"
          "            [--blame] [--blame-window-us W]\n"
          "            [--timeseries] [--timeseries-filter GLOBS] "
          "[--timeseries-window-us W]\n"
          "            [--journal] [--profile]\n"
          "            [--fault-spec FILE]\n"
          "            [--serving-spec FILE]\n"
          "            [--mapping row_bank_col|bank_interleaved|"
          "bank_partitioned]\n"
          "            [--bank-budget-spec FILE] [--bank-telemetry]\n"
          "            [--envelope-spec FILE]\n"
          "            [--aggressor-footprint-mb MB]\n"
          "--out DIR writes the sweep's bundle (docs/OBSERVABILITY.md):\n"
          "sweep.csv (one row per point) and exec_metrics.json at the top,\n"
          "plus ONE merged file per observer with a leading `point` column\n"
          "(the knob value): blame.csv (--blame), timeseries.csv\n"
          "(--timeseries), serving.csv (--serving-spec) and the merged host\n"
          "profile.json/profile.folded (--profile). Every point writes its\n"
          "own run bundle into DIR/<knob><value>/ (metrics.*, blame.*,\n"
          "timeseries.*, journal.jsonl, profile.*, trace.json). Every file\n"
          "but exec_metrics.json and profile.* is byte-identical for any\n"
          "--jobs count. The observer flags need --out.\n"
          "--serving-spec instantiates the same JSON request-serving\n"
          "scenario (docs/SERVING.md) in every point, tenant op buffers\n"
          "seeded per point.\n"
          "--fault-spec arms the same JSON fault plan (docs/FAULTS.md) in\n"
          "every point, seeded per point, so faulty sweeps stay\n"
          "deterministic for any job count.\n"
          "Every point runs once. A point that fails with a configuration\n"
          "error is reported, and the bundle is still written from the\n"
          "points that succeeded. SIGINT/SIGTERM skip the points not yet\n"
          "started and flush partial results.\n"
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
          "--timeseries also prints a merged percentile summary per series\n"
          "(per-point histograms folded in point order) after the sweep.\n"
          "--jobs N runs N sweep points concurrently (0 = all hardware\n"
          "threads; FGQOS_JOBS sets the default).\n");
      return 0;
    }
    const std::string knob = args.get("knob", "budget");
    const std::string values_arg = args.get("values", "100,200,400,800,1600");
    const scenario::ToolArgs t = scenario::parse_tool_args(args, 3, "hw");
    const double isr_us = args.get_positive("isr-us", 3);
    const std::size_t iterations = args.get_count("iterations", 20);
    exec::ExecConfig ec;
    ec.jobs = args.get_count("jobs", exec::jobs_from_env(1));
    ec.base_seed = t.seed;
    for (const auto& k : args.unused_keys()) {
      throw ConfigError("unknown option --" + k + " (see --help)");
    }
    const auto footprint_bytes =
        static_cast<std::uint64_t>(t.aggressor_footprint_mb * (1 << 20));

    // Materialise every point first; jobs read only their own point.
    std::vector<std::string> values = util::split(values_arg, ',');
    std::vector<Point> points;
    points.reserve(values.size());
    for (const std::string& v : values) {
      Point p;
      p.label = v;
      p.aggressors = t.aggressors;
      double budget_mbps = t.budget_mbps;
      double window_us = t.window_us;
      double isr = isr_us;
      if (knob == "aggressors") {
        p.aggressors = util::parse_count(v, "--values (knob aggressors)");
      } else if (knob == "budget") {
        budget_mbps = util::parse_number(v, "--values");
      } else if (knob == "window") {
        window_us = util::parse_positive(v, "--values (knob window)");
      } else if (knob == "isr") {
        isr = util::parse_positive(v, "--values (knob isr)");
      } else {
        throw ConfigError("unknown knob '" + knob + "'");
      }
      p.spec = t.spec(soc::SocConfig{});
      p.spec.budget_bps = budget_mbps * 1e6;
      p.spec.window_ps = static_cast<sim::TimePs>(window_us * 1e6);
      p.spec.memguard.isr_latency_ps = static_cast<sim::TimePs>(isr * 1e6);
      p.spec.regulated_ports = scenario::first_ports(
          std::min(p.aggressors, p.spec.platform.accel_ports));
      cpu::CoreConfig cc;
      cc.name = "critical";
      cc.max_iterations = iterations;
      p.spec.critical = scenario::Critical{
          cc, [] { return wl::make_pointer_chase(wl::PointerChaseConfig{}); }};
      p.observers = t.observers;
      if (!t.out.empty()) {
        p.dir = t.out + "/" + knob + v;
        if (!p.observers.trace_path.empty()) {
          p.observers.trace_path = p.dir + "/trace.json";
        }
      }
      std::ostringstream sc;
      sc << "knob=" << knob << " value=" << v << " scheme=" << t.scheme
         << " aggressors=" << p.aggressors << " budget_mbps=" << budget_mbps
         << " window_us=" << window_us << " isr_us=" << isr
         << " iterations=" << iterations;
      // Conditional tokens keep manifests of pre-existing scenarios
      // byte-identical (golden compatibility).
      if (!t.mapping.empty()) {
        sc << " mapping=" << t.mapping;
      }
      if (t.bank_telemetry) {
        sc << " bank_telemetry=1";
      }
      if (footprint_bytes != (16ull << 20)) {
        sc << " aggressor_footprint_bytes=" << footprint_bytes;
      }
      sc << scenario::hash_token("bank_budgets", t.bank_budgets)
         << scenario::hash_token("serving", t.serving)
         << scenario::hash_token("envelope", t.envelope);
      p.manifest = t.manifest("fgqos_sweep", 0, sc.str());
      points.push_back(std::move(p));
    }
    if (!t.out.empty()) {
      scenario::make_bundle_dir(t.out);
      for (const Point& p : points) {
        scenario::make_bundle_dir(p.dir);
      }
    }

    exec::ScenarioRunner runner(ec);
    g_runner = &runner;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::vector<Outcome> outcomes(points.size());
    std::vector<exec::ScenarioRunner::JobFn> batch;
    batch.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      batch.push_back([&](const exec::JobContext& ctx) {
        outcomes[ctx.index] =
            run_point(points[ctx.index], ctx.seed, footprint_bytes);
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
    if (t.envelope) {
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
    if (t.observers.timeseries) {
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
    if (runner.worker_count() > 1 || !report.all_ok()) {
      std::printf("\n%s\n", runner.summary().c_str());
    }
    if (!t.out.empty()) {
      const std::string base = t.out + "/";
      table.save_csv(base + "sweep.csv");
      runner.metrics().save_json(base + "exec_metrics.json", 0);
      // Sweep-level manifest: the knob and its values ARE the scenario;
      // independent of --jobs, so the merged files stay byte-identical.
      telemetry::RunManifest sweep_manifest;
      sweep_manifest.tool = "fgqos_sweep";
      sweep_manifest.seed = ec.base_seed;
      sweep_manifest.build = telemetry::RunManifest::build_flavor();
      sweep_manifest.scenario =
          "knob=" + knob + " values=" + values_arg + " scheme=" + t.scheme;
      const std::string platform_tokens =
          (t.mapping.empty() ? "" : " mapping=" + t.mapping) +
          scenario::hash_token("bank_budgets", t.bank_budgets);
      // Merged CSVs: every point's pre-rendered rows in submission order.
      const auto write_merged = [&](const char* name,
                                    const telemetry::RunManifest* manifest,
                                    const char* header,
                                    std::string Outcome::*rows) {
        std::ofstream out(base + name);
        config_check(static_cast<bool>(out),
                     "cannot open '" + base + name + "'");
        if (manifest != nullptr) {
          out << manifest->to_csv_comment();
        }
        out << header;
        for (const Outcome& o : outcomes) {
          out << o.*rows;
        }
      };
      if (t.observers.blame_window_ps > 0) {
        write_merged("blame.csv", nullptr,
                     "point,scope,window_start_ps,window_end_ps,victim,"
                     "aggressor,cause,stall_ps,bytes\n",
                     &Outcome::blame_rows);
      }
      if (t.observers.timeseries) {
        telemetry::RunManifest ts_manifest = sweep_manifest;
        ts_manifest.scenario += platform_tokens;
        if (t.faults) {
          ts_manifest.fault_spec_hash =
              telemetry::fnv1a_hex(t.faults->to_json());
        }
        write_merged("timeseries.csv", &ts_manifest,
                     "point,series,window,start_ps,end_ps,value\n",
                     &Outcome::timeseries_rows);
      }
      if (t.serving) {
        telemetry::RunManifest serving_manifest = sweep_manifest;
        serving_manifest.scenario +=
            scenario::hash_token("serving", t.serving) + platform_tokens;
        // An empty plan is contractually a perfect no-op, so it must not
        // perturb this file either: hash only plans that inject something.
        if (t.faults && !t.faults->faults.empty()) {
          serving_manifest.fault_spec_hash =
              telemetry::fnv1a_hex(t.faults->to_json());
        }
        write_merged("serving.csv", &serving_manifest,
                     "point,tenant,arrival,generated,completed,dropped,"
                     "slo_met,offered_qps,completed_qps,p50_ps,p99_ps,"
                     "p999_ps,attainment_pct\n",
                     &Outcome::serving_rows);
      }
      if (t.observers.profile) {
        // One sweep-level profile: per-point snapshots folded in
        // submission order (merge is commutative, so any fold order would
        // agree — the fixed order keeps the bytes identical for any job
        // count).
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
        telemetry::RunManifest manifest = sweep_manifest;
        manifest.profile_tag_table_version =
            telemetry::kProfilerTagTableVersion;
        merged.save_json(base + "profile.json", &manifest);
        merged.save_folded(base + "profile.folded");
      }
      std::printf("\nsweep bundle written to %s\n", t.out.c_str());
    }
    if (!report.all_ok()) {
      std::printf("%s\n", report.describe().c_str());
      for (const std::size_t i : report.failed_indices()) {
        std::fprintf(stderr, "point %s=%s failed: %s\n", knob.c_str(),
                     values[i].c_str(), report.jobs[i].error.c_str());
      }
      return runner.stop_requested() ? 130 : 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

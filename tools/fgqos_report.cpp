/// \file fgqos_report.cpp
/// \brief Run-comparison / regression analyzer over exported artifacts.
///
/// Three modes:
///   compare   — two run bundles (--a DIR --b DIR, as fgqos_sim --out
///               writes them; metrics.json required, blame.csv /
///               journal.jsonl / timeseries.json read when present):
///               per-tenant p50/p99/p999 and bandwidth deltas,
///               blame-matrix diffs, decision-timeline summaries,
///               PASS/FAIL verdicts against the regression thresholds.
///   summary   — one run bundle (only --a given): digest without deltas.
///   bench     — two BENCH_micro.json kernel-throughput records
///               (--bench + --bench-baseline): events/sec drop gate.
///   profile   — two host-profile artifacts (--profile-a + --profile-b,
///               profile.json): per-tag cycle-share regression gate.
///   envelope  — bounds-vs-measured certification gate (--envelope +
///               --measured f1.json,f2.json,...): every measured run is
///               checked against the certified per-master worst-case
///               bounds; any excursion fails the gate.
///
/// Exit codes: 0 = pass, 1 = usage/parse error, 2 = regression detected.
///
/// Examples:
///   fgqos_report --a base_run --b new_run
///   fgqos_report --bench BENCH_micro.json
///                --bench-baseline ci/bench_baseline.json --max-drop-pct 10
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "qos/envelope.hpp"
#include "qos/envelope_check.hpp"
#include "telemetry/report.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"

using namespace fgqos;

namespace {

void usage() {
  std::printf(
      "fgqos_report — compare runs of the fgqos platform simulator\n\n"
      "compare / summary mode:\n"
      "  --a DIR              run A bundle (fgqos_sim --out); reads\n"
      "                       metrics.json and, when present, blame.csv,\n"
      "                       journal.jsonl and timeseries.json\n"
      "  --b DIR              run B bundle (omit for a summary of A)\n"
      "  --max-p99-regress-pct N  tolerated p99/p999 growth (default 10)\n"
      "  --max-bw-drop-pct N      tolerated bandwidth drop (default 10)\n"
      "  --force              compare even when manifests disagree\n"
      "bench mode:\n"
      "  --bench FILE             fresh BENCH_micro.json\n"
      "  --bench-baseline FILE    committed baseline record\n"
      "  --max-drop-pct N         tolerated events/sec drop (default 10)\n"
      "profile mode:\n"
      "  --profile-a FILE         baseline host profile (profile.json)\n"
      "  --profile-b FILE         fresh host profile (profile.json)\n"
      "  --max-share-regress-pp N tolerated per-tag cycle-share growth in\n"
      "                           percentage points (default 2)\n"
      "  --force                  compare across tag-table versions\n"
      "envelope mode:\n"
      "  --envelope FILE          certified envelope JSON (fgqos_certify)\n"
      "  --measured F1,F2,...     measured metrics JSON export(s)\n"
      "  --force                  check across export schema versions\n"
      "common:\n"
      "  --json               emit the report as JSON instead of text\n"
      "  --out FILE           write the report there instead of stdout\n"
      "\nexit codes: 0 pass, 1 error, 2 regression\n");
}

/// Loads run bundle \p dir: metrics.json, then whichever of the optional
/// entries the run wrote.
telemetry::RunData load_bundle(const std::string& dir,
                               const std::string& label) {
  const std::string base = dir + "/";
  config_check(std::filesystem::is_regular_file(base + "metrics.json"),
               "'" + dir + "' is not a run bundle (no metrics.json)");
  telemetry::RunData run;
  run.label = label;
  run.load_metrics_json(base + "metrics.json");
  if (std::filesystem::exists(base + "blame.csv")) {
    run.load_blame_csv(base + "blame.csv");
  }
  if (std::filesystem::exists(base + "journal.jsonl")) {
    run.load_journal_jsonl(base + "journal.jsonl");
  }
  if (std::filesystem::exists(base + "timeseries.json")) {
    run.load_timeseries_json(base + "timeseries.json");
  }
  return run;
}

int emit(const std::string& text, const std::string& out) {
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream os(out);
  if (!os.good()) {
    throw ConfigError("cannot write '" + out + "'");
  }
  os << text;
  if (!os.good()) {
    throw ConfigError("error writing '" + out + "'");
  }
  std::printf("report written to %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    if (args.has("help")) {
      usage();
      return 0;
    }
    const bool as_json = args.get_bool("json", false);
    const std::string out = args.get("out", "");

    // --- envelope (bounds-vs-measured) mode ------------------------------
    const std::string envelope_path = args.get("envelope", "");
    const std::string measured_list = args.get("measured", "");
    if (!envelope_path.empty() || !measured_list.empty()) {
      if (envelope_path.empty() || measured_list.empty()) {
        throw ConfigError("--envelope and --measured go together");
      }
      const bool env_force = args.get_bool("force", false);
      for (const auto& k : args.unused_keys()) {
        throw ConfigError("unknown option --" + k + " (see --help)");
      }
      const qos::CertifiedEnvelope env =
          qos::CertifiedEnvelope::from_file(envelope_path);
      std::vector<telemetry::RunData> runs;
      std::istringstream paths(measured_list);
      std::string path;
      while (std::getline(paths, path, ',')) {
        if (path.empty()) {
          continue;
        }
        telemetry::RunData run;
        run.label = path;
        run.load_metrics_json(path);
        runs.push_back(std::move(run));
      }
      if (runs.empty()) {
        throw ConfigError("--measured lists no files");
      }
      const qos::EnvelopeReport rep = qos::check_envelope(env, runs, env_force);
      std::ostringstream ss;
      if (as_json) {
        rep.write_json(ss);
      } else {
        rep.write_text(ss);
      }
      emit(ss.str(), out);
      return rep.pass() ? 0 : 2;
    }

    // --- bench mode ------------------------------------------------------
    const std::string bench = args.get("bench", "");
    const std::string bench_baseline = args.get("bench-baseline", "");
    if (!bench.empty() || !bench_baseline.empty()) {
      if (bench.empty() || bench_baseline.empty()) {
        throw ConfigError("--bench and --bench-baseline go together");
      }
      const double max_drop = args.get_double("max-drop-pct", 10.0);
      for (const auto& k : args.unused_keys()) {
        throw ConfigError("unknown option --" + k + " (see --help)");
      }
      const telemetry::BenchComparison c = telemetry::compare_bench(
          util::read_file(bench_baseline,
                          "cannot read '" + bench_baseline + "'"),
          util::read_file(bench, "cannot read '" + bench + "'"), max_drop);
      std::ostringstream ss;
      if (as_json) {
        c.write_json(ss);
      } else {
        c.write_text(ss);
      }
      emit(ss.str(), out);
      return c.pass() ? 0 : 2;
    }

    // --- profile mode -----------------------------------------------------
    const std::string profile_a = args.get("profile-a", "");
    const std::string profile_b = args.get("profile-b", "");
    if (!profile_a.empty() || !profile_b.empty()) {
      if (profile_a.empty() || profile_b.empty()) {
        throw ConfigError("--profile-a and --profile-b go together");
      }
      const double max_pp = args.get_double("max-share-regress-pp", 2.0);
      const bool profile_force = args.get_bool("force", false);
      for (const auto& k : args.unused_keys()) {
        throw ConfigError("unknown option --" + k + " (see --help)");
      }
      const telemetry::ProfileComparison c = telemetry::compare_profiles(
          telemetry::ProfileData::load(profile_a),
          telemetry::ProfileData::load(profile_b), max_pp, profile_force);
      std::ostringstream ss;
      if (as_json) {
        c.write_json(ss);
      } else {
        c.write_text(ss);
      }
      emit(ss.str(), out);
      return c.pass() ? 0 : 2;
    }

    // --- compare / summary mode ------------------------------------------
    const std::string dir_a = args.get("a");
    const std::string dir_b = args.get("b");
    if (dir_a.empty()) {
      usage();
      throw ConfigError("--a is required (or use another mode)");
    }
    telemetry::ReportThresholds t;
    t.max_p99_regress_pct =
        args.get_double("max-p99-regress-pct", t.max_p99_regress_pct);
    t.max_bw_drop_pct = args.get_double("max-bw-drop-pct", t.max_bw_drop_pct);
    const bool force = args.get_bool("force", false);
    for (const auto& k : args.unused_keys()) {
      throw ConfigError("unknown option --" + k + " (see --help)");
    }

    // The report points into both runs, so they outlive it.
    const telemetry::RunData a = load_bundle(dir_a, "A");
    const telemetry::RunData b =
        dir_b.empty() ? telemetry::RunData{} : load_bundle(dir_b, "B");
    const telemetry::RunReport rep =
        dir_b.empty() ? telemetry::summarize_run(a)
                      : telemetry::compare_runs(a, b, t, force);
    std::ostringstream ss;
    if (as_json) {
      rep.write_json(ss);
    } else {
      rep.write_text(ss);
    }
    emit(ss.str(), out);
    return rep.pass() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

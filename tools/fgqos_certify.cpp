/// \file fgqos_certify.cpp
/// \brief Adversarial worst-case contention search + certified envelope.
///
/// Search mode (default): drives the pluggable optimizer stack
/// (coordinate descent with random restarts and/or a (mu,lambda)
/// evolution strategy) over the aggressor configuration space, evaluating
/// every visited attack in both unregulated and regulated modes through
/// the exec::ScenarioRunner, then emits a versioned, manifest-stamped
/// certified-envelope JSON: per-master worst-case bounds, the argmax
/// attack config, and full search provenance. The result is a
/// deterministic function of (spec, --seed) — independent of --jobs —
/// and resumable: with --journal every completed evaluation is appended
/// as one JSONL line, and --resume replays the optimizer against the
/// journal at full speed before continuing where an interrupted search
/// stopped.
///
/// Replay mode (--replay): re-runs the envelope's argmax attack at a
/// chosen seed, printing the measured quantities next to the certified
/// bounds; --metrics-json exports the measured snapshot for
/// `fgqos_report --envelope --measured` (the CI bounds-vs-measured gate).
///
/// Examples:
///   fgqos_certify --out envelope.json --seed 7 --jobs 0
///                 --journal search.jsonl
///   fgqos_certify --resume --journal search.jsonl --out envelope.json
///   fgqos_certify --replay envelope.json --replay-seed 8
///                 --metrics-json measured.json
#include <cmath>
#include <csignal>
#include <cstdio>
#include <string>

#include "fault/fault_plan.hpp"
#include "search/search.hpp"
#include "telemetry/manifest.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"

using namespace fgqos;

namespace {

exec::ScenarioRunner* g_runner = nullptr;

extern "C" void on_signal(int) {
  if (g_runner != nullptr) {
    g_runner->request_stop();
  }
}

/// get_double() for a flag whose value must satisfy \p ok; the error
/// names the flag, the accepted range \p want and the value given.
template <class Pred>
double get_checked(const util::ArgParser& args, const std::string& key,
                   double def, Pred ok, const char* want) {
  const double v = args.get_double(key, def);
  config_check(ok(v), "--" + key + " must be " + want + ", got '" +
                          args.get(key) + "'");
  return v;
}

void usage() {
  std::printf(
      "fgqos_certify — adversarial contention search and certified "
      "worst-case envelopes\n\n"
      "search mode:\n"
      "  --out FILE            envelope JSON output (required)\n"
      "  --seed N              search seed (default 1); the envelope is a\n"
      "                        deterministic function of (spec, seed)\n"
      "  --jobs N              parallel evaluations (0 = all hardware\n"
      "                        threads; result is identical for any N)\n"
      "  --objective O         slowdown | p99 | slo_miss (default slowdown)\n"
      "  --budget-evals N      max unique attack configs (default 64; each\n"
      "                        costs an unregulated + a regulated sim)\n"
      "  --restarts N          coordinate-descent restarts (default 2)\n"
      "  --mu N --lambda N     ES parents / offspring (default 4 / 8)\n"
      "  --generations N       ES generations (default 4)\n"
      "  --victim-accesses N   pointer-chase loads per iteration (256)\n"
      "  --victim-iterations N victim iterations per sim (4)\n"
      "  --deadline-ms D       per-sim simulated-time deadline (400)\n"
      "  --slo-iter-us U       victim iteration SLO (0 = 2x solo mean)\n"
      "  --regulated-budget-mbps B  per-HP-port budget when regulated (400)\n"
      "  --window-us W         regulation window (1)\n"
      "  --capacity-gbps C     admission capacity (16)\n"
      "  --max-reservable-frac F    reservable fraction of capacity, in\n"
      "                        (0, 1] (0.85)\n"
      "  --margin M            safety margin on every bound, in [0, 1)\n"
      "                        (0.10)\n"
      "  --validate-seeds N    regulated argmax replays folded into the\n"
      "                        bounds, at seeds seed+1..seed+N (10)\n"
      "  --fault-spec FILE     compose a JSON fault plan into every\n"
      "                        evaluation (see docs/FAULTS.md)\n"
      "  --journal FILE        append one JSONL line per completed\n"
      "                        evaluation (enables --resume)\n"
      "  --resume              pre-fill the cache from --journal and\n"
      "                        continue an interrupted search\n"
      "replay mode:\n"
      "  --replay ENV          envelope JSON to replay\n"
      "  --replay-seed S       platform seed for the replay (default:\n"
      "                        envelope seed + 1)\n"
      "  --unregulated         replay without regulation (default: with)\n"
      "  --metrics-json FILE   export the measured snapshot for\n"
      "                        fgqos_report --envelope --measured\n"
      "  --fault-spec FILE     same plan the certification composed\n"
      "\nSIGINT/SIGTERM stop the search cooperatively (exit 130); every\n"
      "completed evaluation is already in the journal, so --resume\n"
      "continues without repeating work.\n");
}

void print_envelope_summary(const qos::CertifiedEnvelope& env) {
  std::printf("certified envelope: %zu unique configs evaluated\n",
              static_cast<std::size_t>(env.evaluations));
  std::printf("  argmax %s = %s (EXP1 hand-written mix: %s, ratio %.2fx)\n",
              env.objective.c_str(),
              qos::envelope_double(env.argmax_objective).c_str(),
              qos::envelope_double(env.exp1_mix_objective).c_str(),
              env.exp1_mix_objective > 0
                  ? env.argmax_objective / env.exp1_mix_objective
                  : 0.0);
  std::printf("  argmax config: %s\n", env.argmax_config_json.c_str());
  std::printf("  unregulated worst case: iter_mean %s ps, read_p99 %s ps\n",
              qos::envelope_double(env.unregulated.iter_mean_ps).c_str(),
              qos::envelope_double(env.unregulated.read_p99_ps).c_str());
  std::printf("  regulated worst case:   iter_mean %s ps, read_p99 %s ps\n",
              qos::envelope_double(env.regulated.iter_mean_ps).c_str(),
              qos::envelope_double(env.regulated.read_p99_ps).c_str());
  for (const auto& [name, b] : env.masters) {
    std::printf("  bound %-4s:", name.c_str());
    if (b.max_p99_ps > 0) {
      std::printf(" p99<=%s ps", qos::envelope_double(b.max_p99_ps).c_str());
    }
    if (b.min_bandwidth_bps > 0) {
      std::printf(" bw>=%s B/s",
                  qos::envelope_double(b.min_bandwidth_bps).c_str());
    }
    if (b.max_bandwidth_bps > 0) {
      std::printf(" bw<=%s B/s",
                  qos::envelope_double(b.max_bandwidth_bps).c_str());
    }
    if (b.max_reserved_bps > 0) {
      std::printf(" reservable<=%s B/s",
                  qos::envelope_double(b.max_reserved_bps).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    if (args.has("help")) {
      usage();
      return 0;
    }

    const std::string fault_spec = args.get("fault-spec", "");
    fault::FaultPlan fault_plan;
    if (!fault_spec.empty()) {
      fault_plan = fault::FaultPlan::from_file(fault_spec);
    }

    // --- replay mode -----------------------------------------------------
    const std::string replay_path = args.get("replay", "");
    if (!replay_path.empty()) {
      const qos::CertifiedEnvelope env =
          qos::CertifiedEnvelope::from_file(replay_path);
      const std::uint64_t replay_seed =
          args.get_count("replay-seed", env.seed + 1);
      const bool regulated = !args.get_bool("unregulated", false);
      const std::string metrics_json = args.get("metrics-json", "");
      for (const auto& k : args.unused_keys()) {
        throw ConfigError("unknown option --" + k + " (see --help)");
      }
      const search::EvalResult r = search::replay_envelope(
          env, replay_seed, regulated,
          fault_spec.empty() ? nullptr : &fault_plan, metrics_json);
      std::printf("replay of %s (seed %llu, %s):\n", replay_path.c_str(),
                  static_cast<unsigned long long>(replay_seed),
                  regulated ? "regulated" : "unregulated");
      std::printf("  iter_mean_ps  %s\n",
                  qos::envelope_double(r.iter_mean_ps).c_str());
      std::printf("  iter_p99_ps   %s\n",
                  qos::envelope_double(r.iter_p99_ps).c_str());
      std::printf("  read_p99_ps   %s  (certified max %s)\n",
                  qos::envelope_double(r.read_p99_ps).c_str(),
                  qos::envelope_double(
                      env.bound_for("cpu") != nullptr
                          ? env.bound_for("cpu")->max_p99_ps
                          : 0.0)
                      .c_str());
      std::printf("  victim_bw_bps %s\n",
                  qos::envelope_double(r.victim_bw_bps).c_str());
      std::printf("  aggressor_bps %s\n",
                  qos::envelope_double(r.aggressor_bps).c_str());
      std::printf("  slo_miss_frac %s\n",
                  qos::envelope_double(r.slo_miss_frac).c_str());
      if (!metrics_json.empty()) {
        std::printf("measured snapshot written to %s\n", metrics_json.c_str());
      }
      return 0;
    }

    // --- search mode -----------------------------------------------------
    const std::string out = args.get("out", "");
    if (out.empty()) {
      usage();
      throw ConfigError("--out is required (or use --replay)");
    }
    search::SearchSpec spec;
    spec.objective =
        search::objective_from_name(args.get("objective", "slowdown"));
    spec.seed = args.get_count("seed", 1);
    spec.budget_evals = args.get_count("budget-evals", 64);
    spec.restarts = args.get_count("restarts", 2);
    spec.mu = args.get_count("mu", 4);
    spec.lambda = args.get_count("lambda", 8);
    spec.generations = args.get_count("generations", 4);
    spec.eval.victim_accesses = args.get_count("victim-accesses", 256);
    spec.eval.victim_iterations = args.get_count("victim-iterations", 4);
    spec.eval.deadline_ms = args.get_positive("deadline-ms", 400);
    spec.eval.slo_iter_us = get_checked(
        args, "slo-iter-us", 0,
        [](double v) { return std::isfinite(v) && v >= 0; }, ">= 0");
    spec.eval.regulated_budget_mbps =
        args.get_positive("regulated-budget-mbps", 400);
    spec.eval.window_us = args.get_positive("window-us", 1);
    spec.capacity_bps = args.get_positive("capacity-gbps", 16) * 1e9;
    spec.max_reservable_frac = get_checked(
        args, "max-reservable-frac", 0.85,
        [](double v) { return v > 0 && v <= 1; }, "in (0, 1]");
    // The certified bounds scale by 1 + margin and 1 - margin.
    spec.margin = get_checked(
        args, "margin", 0.10, [](double v) { return v >= 0 && v < 1; },
        "in [0, 1)");
    spec.validate_seeds = args.get_count("validate-seeds", 10);
    if (!fault_spec.empty()) {
      spec.eval.faults = &fault_plan;
      spec.fault_spec_json = fault_plan.to_json();
    }
    const std::string journal = args.get("journal", "");
    const bool resume = args.get_bool("resume", false);
    if (resume && journal.empty()) {
      throw ConfigError("--resume requires --journal");
    }
    exec::ExecConfig ec;
    ec.jobs = args.get_count("jobs", exec::jobs_from_env(1));
    ec.base_seed = spec.seed;
    for (const auto& k : args.unused_keys()) {
      throw ConfigError("unknown option --" + k + " (see --help)");
    }

    exec::ScenarioRunner runner(ec);
    g_runner = &runner;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::printf("contention search: objective=%s seed=%llu "
                "budget=%zu evals\n",
                search::objective_name(spec.objective),
                static_cast<unsigned long long>(spec.seed),
                spec.budget_evals);
    const search::SearchOutcome outcome = search::run_search(
        spec, runner, journal, resume,
        [](const search::SearchProgress& p) {
          std::printf("  [%s] batch %zu: %zu config(s) evaluated, best %s "
                      "= %.6g\n",
                      p.phase.c_str(), p.batch, p.evaluations,
                      p.best_config_json.empty() ? "(none)"
                                                 : p.best_config_json.c_str(),
                      p.best_objective);
        });
    g_runner = nullptr;
    if (outcome.interrupted) {
      std::printf("search interrupted — %s\n",
                  journal.empty()
                      ? "no journal was kept, progress is lost"
                      : ("resume with --resume --journal " + journal).c_str());
      return 130;
    }
    outcome.envelope.save(out);
    print_envelope_summary(outcome.envelope);
    std::printf("envelope written to %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

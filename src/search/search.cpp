#include "search/search.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "exec/job.hpp"
#include "search/optimizer.hpp"
#include "telemetry/manifest.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos::search {
namespace {

constexpr int kJournalSchemaVersion = 1;

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string num(double d) { return qos::envelope_double(d); }

/// Cache key of one evaluation: canonical config JSON (or "solo") plus
/// the regulation mode.
std::string eval_key(const std::string& config_json, bool regulated) {
  return config_json + (regulated ? "|reg" : "|unreg");
}

/// The deterministic per-evaluation simulation seed: a pure function of
/// the search seed and the evaluation's identity, so neither batch
/// composition nor --jobs can shift any evaluation's RNG stream.
std::uint64_t eval_sim_seed(std::uint64_t search_seed, const std::string& key) {
  return exec::splitmix64(search_seed ^ fnv1a64(key));
}

std::string result_json(const EvalResult& r) {
  std::ostringstream os;
  os << "{\"aggressor_bps\":" << num(r.aggressor_bps)
     << ",\"deadline_missed\":" << (r.deadline_missed ? "true" : "false")
     << ",\"iter_mean_ps\":" << num(r.iter_mean_ps)
     << ",\"iter_p99_ps\":" << num(r.iter_p99_ps)
     << ",\"read_p99_ps\":" << num(r.read_p99_ps)
     << ",\"slo_miss_frac\":" << num(r.slo_miss_frac)
     << ",\"victim_bw_bps\":" << num(r.victim_bw_bps) << '}';
  return os.str();
}

EvalResult result_from_json(const util::JsonValue& v) {
  EvalResult r;
  r.aggressor_bps = v.at("aggressor_bps").as_number();
  r.deadline_missed = v.at("deadline_missed").as_bool();
  r.iter_mean_ps = v.at("iter_mean_ps").as_number();
  r.iter_p99_ps = v.at("iter_p99_ps").as_number();
  r.read_p99_ps = v.at("read_p99_ps").as_number();
  r.slo_miss_frac = v.at("slo_miss_frac").as_number();
  r.victim_bw_bps = v.at("victim_bw_bps").as_number();
  return r;
}

/// One pending evaluation of a driver batch.
struct PendingEval {
  std::string key;          ///< cache key
  std::string config_json;  ///< "" for solo
  bool regulated = false;
  std::uint64_t sim_seed = 0;
  bool is_validation = false;  ///< validation replay (seed differs)
};

/// The driver state shared by the optimizer phases.
struct Driver {
  const SearchSpec& spec;
  exec::ScenarioRunner& runner;
  std::map<std::string, EvalResult> cache;  ///< key -> result
  std::ofstream journal;
  sim::TimePs slo_iter_ps = 0;
  double solo_iter_mean_ps = 0.0;
  std::size_t batches = 0;
  bool interrupted = false;

  Driver(const SearchSpec& s, exec::ScenarioRunner& r) : spec(s), runner(r) {}

  [[nodiscard]] bool has(const std::string& key) const {
    return cache.count(key) != 0;
  }

  /// Unique attack configs fully evaluated (both modes present).
  [[nodiscard]] std::size_t unique_configs() const {
    std::size_t n = 0;
    for (const auto& [k, r] : cache) {
      (void)r;
      if (k.size() > 6 && k.compare(k.size() - 6, 6, "|unreg") == 0 &&
          k.rfind("solo|", 0) != 0) {
        const std::string reg_key = k.substr(0, k.size() - 6) + "|reg";
        if (cache.count(reg_key) != 0) ++n;
      }
    }
    return n;
  }

  /// Evaluates every not-yet-cached entry of \p evals through the runner
  /// and journals completions. Returns false when the runner was stopped
  /// before the batch finished (partial results are cached + journaled).
  bool evaluate(const std::vector<PendingEval>& evals) {
    std::vector<const PendingEval*> todo;
    for (const auto& e : evals) {
      if (!has(e.key)) todo.push_back(&e);
    }
    // Dedup within the batch (propose() may repeat a config across
    // optimizer phases in the same driver batch).
    std::vector<const PendingEval*> uniq;
    for (const auto* e : todo) {
      const bool seen = std::any_of(uniq.begin(), uniq.end(), [e](auto* u) {
        return u->key == e->key;
      });
      if (!seen) uniq.push_back(e);
    }
    if (uniq.empty()) return !runner.stop_requested();

    std::vector<EvalResult> results(uniq.size());
    std::vector<exec::ScenarioRunner::JobFn> jobs;
    jobs.reserve(uniq.size());
    for (std::size_t i = 0; i < uniq.size(); ++i) {
      const PendingEval* e = uniq[i];
      jobs.push_back([this, e, i, &results](const exec::JobContext& ctx) {
        (void)ctx;
        AttackConfig cfg;
        const bool solo = e->config_json.empty();
        if (!solo) {
          cfg = AttackSpace::from_json(util::JsonValue::parse(e->config_json));
        }
        results[i] = evaluate_attack(solo ? nullptr : &cfg, spec.eval,
                                     e->sim_seed, e->regulated, slo_iter_ps);
      });
    }
    const auto report = runner.run_report(std::move(jobs));
    for (std::size_t i = 0; i < uniq.size(); ++i) {
      if (report.jobs[i].status != exec::JobStatus::kOk) continue;
      cache.emplace(uniq[i]->key, results[i]);
      if (journal.is_open()) {
        journal << "{\"key\":\"" << util::json_escape(uniq[i]->key)
                << "\",\"result\":" << result_json(results[i]) << "}\n";
        journal.flush();
      }
    }
    if (runner.stop_requested()) {
      interrupted = true;
      return false;
    }
    for (std::size_t i = 0; i < uniq.size(); ++i) {
      if (report.jobs[i].status != exec::JobStatus::kOk) {
        throw ConfigError("search: evaluation failed (" +
                                report.describe() + "): " +
                                report.jobs[i].error);
      }
    }
    return true;
  }

  [[nodiscard]] PendingEval pending(const std::string& config_json,
                                    bool regulated) const {
    PendingEval e;
    e.config_json = config_json;
    e.regulated = regulated;
    e.key = eval_key(config_json.empty() ? "solo" : config_json, regulated);
    e.sim_seed = eval_sim_seed(spec.seed, e.key);
    return e;
  }

  /// Current argmax over all cached unregulated attack evaluations:
  /// highest objective, ties broken by ascending config JSON (std::map
  /// iteration order), so the winner is schedule-independent.
  [[nodiscard]] std::pair<std::string, double> argmax() const {
    std::string best_cfg;
    double best = -1.0;
    for (const auto& [k, r] : cache) {
      if (k.size() <= 6 || k.compare(k.size() - 6, 6, "|unreg") != 0) continue;
      if (k.rfind("solo|", 0) == 0) continue;
      const double score =
          objective_value(spec.objective, r, solo_iter_mean_ps);
      if (score > best) {
        best = score;
        best_cfg = k.substr(0, k.size() - 6);
      }
    }
    return {best_cfg, best};
  }

  /// Top-\p n cached configs by unregulated objective (score desc, config
  /// JSON asc) — the warm start handed from coord to the ES phase.
  [[nodiscard]] std::vector<AttackConfig> top_configs(std::size_t n) const {
    std::vector<std::pair<double, std::string>> scored;
    for (const auto& [k, r] : cache) {
      if (k.size() <= 6 || k.compare(k.size() - 6, 6, "|unreg") != 0) continue;
      if (k.rfind("solo|", 0) == 0) continue;
      scored.emplace_back(objective_value(spec.objective, r, solo_iter_mean_ps),
                          k.substr(0, k.size() - 6));
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::vector<AttackConfig> out;
    for (const auto& [score, cfg] : scored) {
      (void)score;
      if (out.size() >= n) break;
      out.push_back(AttackSpace::from_json(util::JsonValue::parse(cfg)));
    }
    return out;
  }

  /// Runs \p opt's propose/observe loop until done, budget or stop.
  /// Returns false on interruption.
  bool run_optimizer(Optimizer& opt, const ProgressFn& progress) {
    while (true) {
      const auto batch = opt.propose();
      if (batch.empty()) return true;
      std::vector<PendingEval> evals;
      std::vector<std::string> cfg_jsons;
      cfg_jsons.reserve(batch.size());
      for (const auto& c : batch) {
        const std::string j = AttackSpace::to_json(c);
        cfg_jsons.push_back(j);
        evals.push_back(pending(j, false));
        evals.push_back(pending(j, true));
      }
      if (!evaluate(evals)) return false;
      std::vector<double> scores;
      scores.reserve(batch.size());
      for (const auto& j : cfg_jsons) {
        scores.push_back(objective_value(spec.objective,
                                         cache.at(eval_key(j, false)),
                                         solo_iter_mean_ps));
      }
      opt.observe(scores);
      ++batches;
      if (progress) {
        const auto [best_cfg, best] = argmax();
        SearchProgress p;
        p.phase = opt.name();
        p.batch = batches;
        p.evaluations = unique_configs();
        p.best_objective = best;
        p.best_config_json = best_cfg;
        progress(p);
        if (runner.stop_requested()) {
          interrupted = true;
          return false;
        }
      }
      if (unique_configs() >= spec.budget_evals) return true;
    }
  }
};

EvalSpec eval_spec_from_envelope(const qos::CertifiedEnvelope& env,
                                 const fault::FaultPlan* faults) {
  EvalSpec e;
  e.victim_accesses = env.victim_accesses;
  e.victim_iterations = env.victim_iterations;
  e.deadline_ms = env.deadline_ms;
  e.slo_iter_us = env.slo_iter_us;
  e.regulated_budget_mbps = env.regulated_budget_mbps;
  e.window_us = env.window_us;
  e.faults = faults;
  return e;
}

sim::TimePs resolve_slo_ps(double slo_iter_us, double solo_iter_mean_ps) {
  if (slo_iter_us > 0) {
    return static_cast<sim::TimePs>(slo_iter_us * sim::kPsPerUs);
  }
  return static_cast<sim::TimePs>(2.0 * solo_iter_mean_ps);
}

}  // namespace

std::string SearchSpec::canonical() const {
  std::ostringstream os;
  os << "optimizer=both objective=" << objective_name(objective)
     << " seed=" << seed << " budget_evals=" << budget_evals
     << " restarts=" << restarts << " mu=" << mu << " lambda=" << lambda
     << " generations=" << generations
     << " victim_accesses=" << eval.victim_accesses
     << " victim_iterations=" << eval.victim_iterations
     << " deadline_ms=" << num(eval.deadline_ms)
     << " slo_iter_us=" << num(eval.slo_iter_us)
     << " budget_mbps=" << num(eval.regulated_budget_mbps)
     << " window_us=" << num(eval.window_us)
     << " capacity_bps=" << num(capacity_bps)
     << " max_reservable_frac=" << num(max_reservable_frac)
     << " margin=" << num(margin) << " validate_seeds=" << validate_seeds
     << " space=" << AttackSpace::space_hash();
  if (!fault_spec_json.empty()) {
    os << " fault_spec=" << telemetry::fnv1a_hex(fault_spec_json);
  }
  return os.str();
}

std::string SearchSpec::spec_hash() const {
  return telemetry::fnv1a_hex(canonical());
}

SearchOutcome run_search(const SearchSpec& spec, exec::ScenarioRunner& runner,
                         const std::string& journal_path, bool resume,
                         const ProgressFn& progress) {
  if (spec.budget_evals == 0) {
    throw ConfigError("search: budget_evals must be > 0");
  }

  Driver d(spec, runner);

  // --- journal open / resume ----------------------------------------------
  if (!journal_path.empty() && resume) {
    std::ifstream in(journal_path);
    if (!in) {
      throw ConfigError("search: cannot open journal for resume: " +
                              journal_path);
    }
    std::string line;
    bool header_seen = false;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto v = util::JsonValue::parse(line);
      if (!header_seen) {
        if (!v.contains("fgqos_search_journal") ||
            static_cast<int>(v.at("fgqos_search_journal").as_number()) !=
                kJournalSchemaVersion) {
          throw ConfigError("search: not a search journal: " +
                                  journal_path);
        }
        if (v.at("spec_hash").as_string() != spec.spec_hash()) {
          throw ConfigError(
              "search: journal was written by a different spec (hash " +
              v.at("spec_hash").as_string() + " != " + spec.spec_hash() +
              ") — refusing to resume");
        }
        header_seen = true;
        continue;
      }
      d.cache.emplace(v.at("key").as_string(),
                      result_from_json(v.at("result")));
    }
    if (!header_seen) {
      throw ConfigError("search: journal has no header: " +
                              journal_path);
    }
  }
  if (!journal_path.empty()) {
    d.journal.open(journal_path, resume ? std::ios::app : std::ios::trunc);
    if (!d.journal) {
      throw ConfigError("search: cannot write journal: " + journal_path);
    }
    if (!resume) {
      d.journal << "{\"fgqos_search_journal\":" << kJournalSchemaVersion
                << ",\"spec_hash\":\"" << spec.spec_hash()
                << "\",\"space_hash\":\"" << AttackSpace::space_hash()
                << "\"}\n";
      d.journal.flush();
    }
  }

  SearchOutcome out;
  auto finish_interrupted = [&out]() {
    out.interrupted = true;
    return out;
  };

  // --- solo baseline + EXP1 mix -------------------------------------------
  // The solo run anchors the slowdown objective and (when slo_iter_us is
  // 0) derives the SLO threshold, so it must complete before any scored
  // evaluation. The EXP1 mix is always measured: it is the paper baseline
  // the headline ratio compares against, whatever the optimizer.
  if (!d.evaluate({d.pending("", false)})) return finish_interrupted();
  d.solo_iter_mean_ps = d.cache.at(eval_key("solo", false)).iter_mean_ps;
  d.slo_iter_ps = resolve_slo_ps(spec.eval.slo_iter_us, d.solo_iter_mean_ps);

  const std::string exp1_json = AttackSpace::to_json(AttackSpace::exp1_mix());
  if (!d.evaluate({d.pending(exp1_json, false), d.pending(exp1_json, true)})) {
    return finish_interrupted();
  }

  // --- optimizer phases ----------------------------------------------------
  // Coordinate descent first; the ES spends what budget is left, warm
  // started from the coordinate phase's best configs.
  CoordinateDescent coord(spec.seed, spec.restarts);
  if (!d.run_optimizer(coord, progress)) return finish_interrupted();
  if (d.unique_configs() < spec.budget_evals) {
    MuLambdaES es(spec.seed, spec.mu, spec.lambda, spec.generations);
    es.seed_parents(d.top_configs(spec.mu));
    if (!d.run_optimizer(es, progress)) return finish_interrupted();
  }

  // --- validation replays ---------------------------------------------------
  const auto [best_cfg, best_score] = d.argmax();
  if (best_cfg.empty()) {
    throw ConfigError("search: no attack configuration was evaluated");
  }
  std::vector<PendingEval> validation;
  for (std::size_t i = 0; i < spec.validate_seeds; ++i) {
    PendingEval e;
    e.config_json = best_cfg;
    e.regulated = true;
    e.sim_seed = spec.seed + 1 + i;
    e.key = "validate|" + std::to_string(e.sim_seed) + "|" + best_cfg;
    e.is_validation = true;
    validation.push_back(e);
  }
  if (!d.evaluate(validation)) return finish_interrupted();
  if (progress) {
    SearchProgress p;
    p.phase = "validate";
    p.batch = d.batches;
    p.evaluations = d.unique_configs();
    p.best_objective = best_score;
    p.best_config_json = best_cfg;
    progress(p);
  }

  // --- envelope -------------------------------------------------------------
  qos::CertifiedEnvelope env;
  env.manifest.tool = "fgqos_certify";
  env.manifest.scenario = spec.canonical();
  env.manifest.seed = spec.seed;
  env.manifest.build = telemetry::RunManifest::build_flavor();
  env.manifest.fault_spec_hash =
      spec.fault_spec_json.empty() ? ""
                                   : telemetry::fnv1a_hex(spec.fault_spec_json);
  env.optimizer = "both";
  env.objective = objective_name(spec.objective);
  env.seed = spec.seed;
  env.evaluations = d.unique_configs();
  env.space_hash = AttackSpace::space_hash();
  env.spec_hash = spec.spec_hash();
  env.fault_spec_hash = env.manifest.fault_spec_hash;
  env.victim_accesses = spec.eval.victim_accesses;
  env.victim_iterations = spec.eval.victim_iterations;
  env.deadline_ms = spec.eval.deadline_ms;
  env.slo_iter_us = spec.eval.slo_iter_us;
  env.regulated_budget_mbps = spec.eval.regulated_budget_mbps;
  env.window_us = spec.eval.window_us;
  env.margin = spec.margin;
  for (std::size_t i = 0; i < spec.validate_seeds; ++i) {
    env.validate_seeds.push_back(spec.seed + 1 + i);
  }
  env.solo_iter_mean_ps = d.solo_iter_mean_ps;
  env.exp1_mix_objective =
      objective_value(spec.objective, d.cache.at(eval_key(exp1_json, false)),
                      d.solo_iter_mean_ps);
  env.argmax_config_json = best_cfg;
  env.argmax_objective = best_score;

  auto fill_stats = [&](const EvalResult& r) {
    qos::EnvelopeEvalStats s;
    s.iter_mean_ps = r.iter_mean_ps;
    s.iter_p99_ps = r.iter_p99_ps;
    s.read_p99_ps = r.read_p99_ps;
    s.victim_bw_bps = r.victim_bw_bps;
    s.aggressor_bps = r.aggressor_bps;
    s.slo_miss_frac = r.slo_miss_frac;
    return s;
  };
  env.unregulated = fill_stats(d.cache.at(eval_key(best_cfg, false)));
  env.regulated = fill_stats(d.cache.at(eval_key(best_cfg, true)));

  env.capacity_bps = spec.capacity_bps;
  env.max_reservable_frac = spec.max_reservable_frac;

  // Fold the victim bound over every regulated measurement the search
  // made — every visited config's regulated run plus every validation
  // replay — then widen by the margin.
  double worst_p99 = 0.0;
  double worst_bw = -1.0;
  double worst_slowdown = 0.0;
  for (const auto& [k, r] : d.cache) {
    const bool reg_eval =
        k.size() > 4 && k.compare(k.size() - 4, 4, "|reg") == 0;
    const bool validation_eval = k.rfind("validate|", 0) == 0;
    if (!reg_eval && !validation_eval) continue;
    worst_p99 = std::max(worst_p99, r.read_p99_ps);
    worst_bw = worst_bw < 0 ? r.victim_bw_bps : std::min(worst_bw, r.victim_bw_bps);
    if (d.solo_iter_mean_ps > 0) {
      worst_slowdown =
          std::max(worst_slowdown, r.iter_mean_ps / d.solo_iter_mean_ps);
    }
  }
  qos::MasterBound cpu;
  cpu.max_p99_ps = worst_p99 * (1.0 + spec.margin);
  cpu.min_bandwidth_bps = worst_bw > 0 ? worst_bw * (1.0 - spec.margin) : 0.0;
  cpu.max_slowdown = worst_slowdown * (1.0 + spec.margin);
  env.masters.emplace("cpu", cpu);

  const double budget_bps = spec.eval.regulated_budget_mbps * 1e6;
  constexpr std::size_t kAccelPorts = 4;  // SocConfig default topology
  for (std::size_t p = 0; p < kAccelPorts; ++p) {
    qos::MasterBound hp;
    hp.max_reserved_bps = budget_bps;
    hp.max_bandwidth_bps = budget_bps * (1.0 + spec.margin);
    env.masters.emplace("hp" + std::to_string(p), hp);
  }
  env.certified_total_bps =
      std::min(spec.capacity_bps * spec.max_reservable_frac,
               budget_bps * static_cast<double>(kAccelPorts));

  out.envelope = std::move(env);
  return out;
}

EvalResult replay_envelope(const qos::CertifiedEnvelope& env,
                           std::uint64_t sim_seed, bool regulated,
                           const fault::FaultPlan* faults,
                           const std::string& metrics_json_path,
                           const scenario::Observers& obs,
                           const std::function<void(soc::Soc&)>& after_run) {
  const std::string expect =
      env.fault_spec_hash.empty()
          ? ""
          : env.fault_spec_hash;
  if (expect.empty() && faults != nullptr && !faults->empty()) {
    throw ConfigError(
        "replay: envelope was certified without faults but a fault plan was "
        "given");
  }
  if (!expect.empty() && (faults == nullptr || faults->empty())) {
    throw ConfigError(
        "replay: envelope was certified with fault plan " + expect +
        " — pass the same --fault-spec");
  }
  const AttackConfig cfg =
      AttackSpace::from_json(util::JsonValue::parse(env.argmax_config_json));
  EvalSpec spec = eval_spec_from_envelope(env, faults);
  const sim::TimePs slo_ps =
      resolve_slo_ps(env.slo_iter_us, env.solo_iter_mean_ps);
  // The replay's provenance is the envelope's, plus what distinguishes
  // this replay from any other (seed and regulation mode).
  telemetry::RunManifest manifest = env.manifest;
  manifest.seed = sim_seed;
  manifest.scenario +=
      std::string(" replay=1 regulated=") + (regulated ? "1" : "0");
  return evaluate_attack(&cfg, spec, sim_seed, regulated, slo_ps,
                         metrics_json_path, &manifest, obs, after_run);
}

}  // namespace fgqos::search

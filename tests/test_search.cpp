/// \file test_search.cpp
/// \brief Adversarial contention search + certified-envelope admission.
///
/// Covers the search subsystem (attack-space round-trip, objective
/// evaluation, jobs-invariance, interrupt/resume), the CertifiedEnvelope
/// serialization contract, the QosManager envelope-backed admission path
/// (boundary semantics, journaled causes, fallback mode) and the
/// SlaWatchdog bounds-vs-observed cross-check.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/core.hpp"
#include "exec/scenario_runner.hpp"
#include "qos/envelope.hpp"
#include "qos/envelope_check.hpp"
#include "qos/qos_manager.hpp"
#include "qos/regulator.hpp"
#include "qos/sla_watchdog.hpp"
#include "search/attack_space.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"
#include "soc/soc.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"
#include "workload/cpu_workloads.hpp"

namespace fgqos {
namespace {

using search::AttackConfig;
using search::AttackSpace;

/// A small evaluation scenario every search test shares: short victim,
/// generous deadline — one sim lands in tens of milliseconds of wall time.
search::EvalSpec tiny_eval() {
  search::EvalSpec e;
  e.victim_accesses = 64;
  e.victim_iterations = 2;
  e.deadline_ms = 50.0;
  e.regulated_budget_mbps = 400.0;
  e.window_us = 1.0;
  return e;
}

/// A known-nasty point the search reliably discovers: the EXP1 mix with
/// the pattern flipped to random *writes*. Random writes defeat the
/// controller's row-hit batching and put the data bus through a
/// write-to-read turnaround penalty on every victim read.
AttackConfig worst_known_config() {
  AttackConfig c = AttackSpace::exp1_mix();
  c.choice[search::kDimPattern] = 3;  // rnd_wr
  return AttackSpace::normalize(c);
}

// --- attack space ----------------------------------------------------------

TEST(AttackSpace, JsonRoundTripIsCanonical) {
  const AttackConfig exp1 = AttackSpace::exp1_mix();
  const std::string json = AttackSpace::to_json(exp1);
  // The hand-written EXP1 mix decodes to the paper's aggressor settings.
  EXPECT_NE(json.find("\"burst_bytes\":1024"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pattern\":\"seq_rd\""), std::string::npos) << json;
  const AttackConfig back =
      AttackSpace::from_json(util::JsonValue::parse(json));
  EXPECT_EQ(back, exp1);
  EXPECT_EQ(AttackSpace::to_json(back), json);
}

TEST(AttackSpace, NormalizeCollapsesStrideForNonStridedPatterns) {
  AttackConfig a = AttackSpace::exp1_mix();
  AttackConfig b = a;
  b.choice[search::kDimStride] = 2;  // meaningless for seq_rd
  EXPECT_EQ(AttackSpace::normalize(b), AttackSpace::normalize(a));
  EXPECT_EQ(AttackSpace::to_json(AttackSpace::normalize(b)),
            AttackSpace::to_json(a));
  // A strided pattern keeps its stride choice.
  AttackConfig s = a;
  s.choice[search::kDimPattern] = 5;  // strided
  s.choice[search::kDimStride] = 2;
  EXPECT_EQ(AttackSpace::normalize(s).choice[search::kDimStride], 2);
}

TEST(AttackSpace, CatalogHashIsStable) {
  const std::string h = AttackSpace::space_hash();
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h, AttackSpace::space_hash());
  for (std::size_t d = 0; d < search::kNumDims; ++d) {
    EXPECT_GT(AttackSpace::dim_size(d), 0u);
  }
}

// --- objective evaluation --------------------------------------------------

TEST(SearchObjective, AttackSlowsVictimAndRegulationRecovers) {
  const search::EvalSpec spec = tiny_eval();
  const search::EvalResult solo =
      search::evaluate_attack(nullptr, spec, 5, false, 0);
  ASSERT_GT(solo.iter_mean_ps, 0.0);
  ASSERT_FALSE(solo.deadline_missed);
  const sim::TimePs slo =
      static_cast<sim::TimePs>(2.0 * solo.iter_mean_ps);

  const AttackConfig attack = worst_known_config();
  const search::EvalResult attacked =
      search::evaluate_attack(&attack, spec, 5, false, slo);
  EXPECT_GT(attacked.iter_mean_ps, solo.iter_mean_ps);
  EXPECT_GT(attacked.aggressor_bps, 0.0);

  const search::EvalResult regulated =
      search::evaluate_attack(&attack, spec, 5, true, slo);
  EXPECT_LT(regulated.iter_mean_ps, attacked.iter_mean_ps);

  // Equal (config, spec, seed, regulated) is bit-reproducible.
  const search::EvalResult again =
      search::evaluate_attack(&attack, spec, 5, false, slo);
  EXPECT_DOUBLE_EQ(again.iter_mean_ps, attacked.iter_mean_ps);
  EXPECT_DOUBLE_EQ(again.read_p99_ps, attacked.read_p99_ps);
  EXPECT_DOUBLE_EQ(again.victim_bw_bps, attacked.victim_bw_bps);

  // Objective extraction.
  EXPECT_DOUBLE_EQ(
      search::objective_value(search::Objective::kSlowdown, attacked,
                              solo.iter_mean_ps),
      attacked.iter_mean_ps / solo.iter_mean_ps);
  EXPECT_DOUBLE_EQ(search::objective_value(search::Objective::kP99, attacked,
                                           solo.iter_mean_ps),
                   attacked.read_p99_ps);
}

/// The attack space provably contains a point >= 1.5x nastier than the
/// paper's hand-written EXP1 mix — the existence claim behind the
/// headline ratio that bench_exp14_certification and the CI golden pin
/// on a full search.
TEST(SearchObjective, KnownPointBeatsExp1MixByHeadlineRatio) {
  const search::EvalSpec spec = tiny_eval();
  const search::EvalResult solo =
      search::evaluate_attack(nullptr, spec, 11, false, 0);
  const sim::TimePs slo =
      static_cast<sim::TimePs>(2.0 * solo.iter_mean_ps);
  const AttackConfig exp1 = AttackSpace::exp1_mix();
  const AttackConfig worst = worst_known_config();
  const double exp1_slowdown = search::objective_value(
      search::Objective::kSlowdown,
      search::evaluate_attack(&exp1, spec, 11, false, slo),
      solo.iter_mean_ps);
  const double worst_slowdown = search::objective_value(
      search::Objective::kSlowdown,
      search::evaluate_attack(&worst, spec, 11, false, slo),
      solo.iter_mean_ps);
  EXPECT_GT(exp1_slowdown, 1.0);
  EXPECT_GE(worst_slowdown, 1.5 * exp1_slowdown)
      << "exp1=" << exp1_slowdown << " worst=" << worst_slowdown;
}

TEST(SearchObjective, ObjectiveNamesRoundTrip) {
  EXPECT_EQ(search::objective_from_name("slowdown"),
            search::Objective::kSlowdown);
  EXPECT_EQ(search::objective_from_name("p99"), search::Objective::kP99);
  EXPECT_EQ(search::objective_from_name("slo_miss"),
            search::Objective::kSloMiss);
  EXPECT_STREQ(search::objective_name(search::Objective::kSloMiss),
               "slo_miss");
  EXPECT_THROW((void)search::objective_from_name("latency"), ConfigError);
}

// --- search driver ---------------------------------------------------------

/// A search spec small enough that the whole loop (coordinate descent from
/// the EXP1 start, budget-truncated) plus validation runs in seconds.
search::SearchSpec tiny_search_spec() {
  search::SearchSpec spec;
  spec.seed = 3;
  spec.budget_evals = 6;  // truncates after the first neighbour batch
  spec.restarts = 1;
  spec.mu = 2;
  spec.lambda = 3;
  spec.generations = 1;
  spec.validate_seeds = 2;
  spec.eval = tiny_eval();
  return spec;
}

TEST(ContentionSearch, EnvelopeIsJobsInvariant) {
  const search::SearchSpec spec = tiny_search_spec();
  exec::ScenarioRunner serial({1, 99});
  const search::SearchOutcome a = search::run_search(spec, serial, "", false);
  ASSERT_FALSE(a.interrupted);
  exec::ScenarioRunner parallel({0, 99});  // hardware concurrency
  const search::SearchOutcome b =
      search::run_search(spec, parallel, "", false);
  ASSERT_FALSE(b.interrupted);
  EXPECT_EQ(a.envelope.to_json(), b.envelope.to_json());

  const qos::CertifiedEnvelope& env = a.envelope;
  EXPECT_GE(env.evaluations, spec.budget_evals);
  EXPECT_GT(env.exp1_mix_objective, 0.0);
  // The EXP1 mix is always evaluated, so the argmax can never score
  // below it.
  EXPECT_GE(env.argmax_objective, env.exp1_mix_objective);
  EXPECT_FALSE(env.argmax_config_json.empty());
  EXPECT_EQ(env.spec_hash, spec.spec_hash());
  EXPECT_EQ(env.space_hash, AttackSpace::space_hash());
  EXPECT_GT(env.certified_total_bps, 0.0);
  ASSERT_NE(env.bound_for("cpu"), nullptr);
  EXPECT_GT(env.bound_for("cpu")->max_p99_ps, 0.0);
  EXPECT_GT(env.bound_for("cpu")->min_bandwidth_bps, 0.0);
  for (const std::string hp : {"hp0", "hp1", "hp2", "hp3"}) {
    ASSERT_NE(env.bound_for(hp), nullptr) << hp;
    EXPECT_GT(env.bound_for(hp)->max_reserved_bps, 0.0) << hp;
  }
  EXPECT_EQ(env.bound_for("dp7"), nullptr);

  // Canonical serialization round-trips byte-identically.
  const std::string json = env.to_json();
  const qos::CertifiedEnvelope back =
      qos::CertifiedEnvelope::from_json(util::JsonValue::parse(json));
  EXPECT_EQ(back.to_json(), json);
}

TEST(ContentionSearch, InterruptedSearchResumesFromJournal) {
  const std::string journal = "/tmp/fgqos_test_search_journal.jsonl";
  std::remove(journal.c_str());

  search::SearchSpec spec = tiny_search_spec();
  // A budget the coordinate phase converges inside, so the ES phase (one
  // small generation, warm started from it) spends the rest: the resumed
  // search replays both phases.
  spec.budget_evals = 64;

  // Reference: the uninterrupted search.
  exec::ScenarioRunner ref_runner({0, 7});
  std::set<std::string> phases;
  const search::SearchOutcome ref = search::run_search(
      spec, ref_runner, "", false,
      [&](const search::SearchProgress& p) { phases.insert(p.phase); });
  ASSERT_FALSE(ref.interrupted);
  EXPECT_EQ(phases, (std::set<std::string>{"coord", "es", "validate"}));

  // Interrupt after the first observed batch; the journal keeps every
  // completed evaluation.
  exec::ScenarioRunner stopper({0, 7});
  const search::SearchOutcome cut = search::run_search(
      spec, stopper, journal, false,
      [&](const search::SearchProgress&) { stopper.request_stop(); });
  EXPECT_TRUE(cut.interrupted);

  // Resume converges to the exact same envelope.
  exec::ScenarioRunner resumer({0, 7});
  const search::SearchOutcome resumed =
      search::run_search(spec, resumer, journal, true);
  ASSERT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.envelope.to_json(), ref.envelope.to_json());

  // A journal from a different spec is refused.
  spec.seed = 4;
  exec::ScenarioRunner other({0, 7});
  EXPECT_THROW((void)search::run_search(spec, other, journal, true),
               ConfigError);
  std::remove(journal.c_str());
}

// --- envelope serialization ------------------------------------------------

qos::CertifiedEnvelope demo_envelope() {
  qos::CertifiedEnvelope env;
  env.manifest.tool = "fgqos_certify";
  env.manifest.scenario = "demo";
  env.manifest.seed = 9;
  env.optimizer = "both";
  env.objective = "slowdown";
  env.seed = 9;
  env.evaluations = 12;
  env.space_hash = AttackSpace::space_hash();
  env.spec_hash = "deadbeef";
  env.margin = 0.1;
  env.capacity_bps = 10e9;
  env.max_reservable_frac = 0.8;
  env.certified_total_bps = 3e9;
  env.validate_seeds = {10, 11};
  env.argmax_config_json = AttackSpace::to_json(AttackSpace::exp1_mix());
  env.argmax_objective = 2.5;
  env.exp1_mix_objective = 1.25;
  env.masters["cpu"].max_p99_ps = 1000.0;
  env.masters["cpu"].min_bandwidth_bps = 100.0;
  env.masters["cpu"].max_slowdown = 2.75;
  env.masters["hp0"].max_reserved_bps = 2e9;
  env.masters["hp0"].max_bandwidth_bps = 2.2e9;
  env.masters["hp1"].max_reserved_bps = 2e9;
  return env;
}

TEST(CertifiedEnvelope, FileRoundTripAndSchemaGate) {
  const std::string path = "/tmp/fgqos_test_envelope.json";
  const qos::CertifiedEnvelope env = demo_envelope();
  env.save(path);
  const qos::CertifiedEnvelope back = qos::CertifiedEnvelope::from_file(path);
  EXPECT_EQ(back.to_json(), env.to_json());
  EXPECT_DOUBLE_EQ(back.masters.at("cpu").max_p99_ps, 1000.0);
  EXPECT_EQ(back.validate_seeds, env.validate_seeds);

  // A foreign schema version is refused at load. The envelope-level
  // version is the first key of the document (the manifest's own
  // schema_version comes later), so patching the first occurrence hits it.
  std::string json = env.to_json();
  const std::string tag = "\"schema_version\":1";
  const auto pos = json.find(tag);
  ASSERT_EQ(pos, 1u) << json;
  json.replace(pos, tag.size(), "\"schema_version\":99");
  {
    std::ofstream os(path);
    os << json;
  }
  EXPECT_THROW((void)qos::CertifiedEnvelope::from_file(path), ConfigError);
  std::remove(path.c_str());
}

// --- admission control -----------------------------------------------------

TEST(QosManagerEnvelope, AdmissionEnforcesBoundsWithStrictInequality) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  telemetry::DecisionJournal journal;
  telemetry::MetricsRegistry& metrics = chip.telemetry().metrics();
  const qos::CertifiedEnvelope env = demo_envelope();

  qos::QosManagerConfig mc;
  mc.capacity_bps = 10e9;
  mc.max_reservable_frac = 0.8;
  qos::QosManager mgr(chip.sim(), mc);
  mgr.set_envelope(&env);
  mgr.set_journal(&journal);
  mgr.set_metrics(&metrics);
  mgr.add_port("hp0", 1, chip.regfile(1));
  mgr.add_port("hp1", 2, chip.regfile(2));

  // Exactly on the per-master certified cap: accepted (strict inequality).
  EXPECT_TRUE(mgr.reserve(1, 2e9));
  // One byte over the cap: rejected, state unchanged.
  EXPECT_FALSE(mgr.reserve(1, 2e9 + 1));
  EXPECT_DOUBLE_EQ(mgr.reserved_total_bps(), 2e9);
  // Exactly on the certified total: accepted.
  EXPECT_TRUE(mgr.reserve(2, 1e9));
  // Over the certified total (though under the per-master cap): rejected.
  EXPECT_FALSE(mgr.reserve(2, 1.5e9));
  EXPECT_DOUBLE_EQ(mgr.reserved_total_bps(), 3e9);
  // Re-reserving a master to a smaller rate can never be rejected.
  EXPECT_TRUE(mgr.reserve(1, 1e9));
  EXPECT_DOUBLE_EQ(mgr.reserved_total_bps(), 2e9);

  // Without an envelope the plain capacity_frac boundary applies, with
  // the same exact-boundary-accepted convention (8 GB/s reservable).
  mgr.set_envelope(nullptr);
  EXPECT_FALSE(mgr.reserve(2, 7.5e9));  // 8.5 > 8 GB/s
  EXPECT_TRUE(mgr.reserve(2, 7e9));     // exactly 8 GB/s

  // Journaled causes name the binding constraint of each rejection.
  std::vector<std::string> causes;
  for (const auto& e : journal.entries()) {
    if (e.action == "reserve_reject") {
      causes.push_back(e.cause);
    }
  }
  ASSERT_EQ(causes.size(), 3u);
  EXPECT_EQ(causes[0], "envelope_master_bound");
  EXPECT_EQ(causes[1], "envelope_total_bound");
  EXPECT_EQ(causes[2], "capacity_frac");
  for (const auto& e : journal.entries()) {
    if (e.action == "reserve_reject") {
      EXPECT_NE(e.detail.find("bound_bps="), std::string::npos) << e.detail;
    }
  }

  // Counters and the reserved gauge track every decision.
  EXPECT_EQ(metrics.counter("qos.admission.accepted").value(), 4u);
  EXPECT_EQ(metrics.counter("qos.admission.rejected").value(), 3u);
  EXPECT_DOUBLE_EQ(metrics.gauge("qos.admission.reserved_bps").value(), 8e9);
  mgr.release(1);
  EXPECT_EQ(metrics.counter("qos.admission.released").value(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge("qos.admission.reserved_bps").value(), 7e9);
}

TEST(QosManagerEnvelope, ViolationDropsManagerIntoConservativeFallback) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  telemetry::DecisionJournal journal;
  telemetry::MetricsRegistry& metrics = chip.telemetry().metrics();
  qos::CertifiedEnvelope env = demo_envelope();
  env.masters["hp0"].max_reserved_bps = 1e9;

  qos::QosManager mgr(chip.sim(), qos::QosManagerConfig{});
  mgr.set_journal(&journal);
  mgr.set_metrics(&metrics);
  mgr.add_port("hp0", 1, chip.regfile(1));
  mgr.add_port("hp1", 2, chip.regfile(2));
  // Reserve BEFORE the envelope attaches, above what it certifies.
  ASSERT_TRUE(mgr.reserve(1, 2e9));
  mgr.set_envelope(&env);
  mgr.start_reclamation();
  ASSERT_TRUE(mgr.reclamation_active());

  mgr.on_envelope_violated("sla.cpu", "latency_p99", 1000.0, 2000.0);
  EXPECT_TRUE(mgr.envelope_fallback());
  // Reclamation stopped, the over-certified reservation clamped to its
  // certified cap, and the clamp journaled.
  EXPECT_FALSE(mgr.reclamation_active());
  EXPECT_DOUBLE_EQ(mgr.reserved_total_bps(), 1e9);
  // 1 GB/s at the default 1 us window = 1000 bytes.
  EXPECT_EQ(chip.qos_block(1).regulator->config().budget_bytes, 1000u);

  std::size_t violated = 0;
  std::size_t clamps = 0;
  for (const auto& e : journal.entries()) {
    if (e.action == "envelope_violated") {
      ++violated;
      EXPECT_EQ(e.cause, "latency_p99");
      EXPECT_NE(e.detail.find("source=sla.cpu"), std::string::npos);
    }
    if (e.action == "fallback_clamp") {
      ++clamps;
    }
  }
  EXPECT_EQ(violated, 1u);
  EXPECT_EQ(clamps, 1u);

  // Further reservations are refused with the fallback cause.
  EXPECT_FALSE(mgr.reserve(2, 1e8));
  EXPECT_EQ(journal.entries().back().cause, "envelope_fallback");
  // A second excursion only bumps the counter — no second degrade entry.
  mgr.on_envelope_violated("sla.cpu", "latency_p99", 1000.0, 3000.0);
  EXPECT_EQ(metrics.counter("qos.admission.envelope_violated").value(), 2u);
}

// --- bounds-vs-measured ----------------------------------------------------

telemetry::RunData demo_run() {
  telemetry::RunData run;
  run.label = "run";
  run.time_ps = sim::kPsPerMs;  // 1 ms horizon
  telemetry::MetricSample p99;
  p99.type = telemetry::MetricSample::Type::kGauge;
  p99.value = 900.0;
  run.metrics["port.cpu.read_p99_ps"] = p99;
  telemetry::MetricSample cpu_bytes;
  cpu_bytes.value = 1000.0;  // 1e15 bps over 1 ms -> comfortably over min
  run.metrics["port.cpu.bytes"] = cpu_bytes;
  telemetry::MetricSample hp_bytes;
  hp_bytes.value = 2e-3;  // 2e9 bps -> under the 2.2e9 cap
  run.metrics["port.hp0.bytes"] = hp_bytes;
  return run;
}

TEST(EnvelopeCheck, PassFailAndMissingMetricSemantics) {
  const qos::CertifiedEnvelope env = demo_envelope();
  {
    const qos::EnvelopeReport rep = qos::check_envelope(env, {demo_run()});
    EXPECT_TRUE(rep.pass()) << (rep.excursions.empty()
                                    ? ""
                                    : rep.excursions.front());
    // cpu max_p99 + cpu min_bw + hp0 max_bw (hp1 has no bw bound).
    EXPECT_EQ(rep.rows.size(), 3u);
    std::ostringstream text;
    rep.write_text(text);
    EXPECT_NE(text.str().find("[PASS]"), std::string::npos);
    EXPECT_NE(text.str().rfind("PASS\n"), std::string::npos);
  }
  {
    // An upper-bound excursion fails; a missing *lower*-bound metric
    // fails; a missing upper-bound metric is n/a and passes.
    telemetry::RunData bad = demo_run();
    bad.metrics["port.cpu.read_p99_ps"].value = 2000.0;
    bad.metrics.erase("port.cpu.bytes");
    bad.metrics.erase("port.hp0.bytes");
    const qos::EnvelopeReport rep = qos::check_envelope(env, {bad});
    EXPECT_FALSE(rep.pass());
    EXPECT_EQ(rep.excursions.size(), 2u);
    std::ostringstream js;
    rep.write_json(js);
    EXPECT_NE(js.str().find("\"pass\":false"), std::string::npos);
    EXPECT_NE(js.str().find("\"measured\":null"), std::string::npos);
  }
}

TEST(EnvelopeCheck, SchemaMismatchThrowsUnlessForced) {
  const qos::CertifiedEnvelope env = demo_envelope();
  telemetry::RunData run = demo_run();
  run.has_manifest = true;
  run.manifest.schema_version = env.manifest.schema_version + 1;
  EXPECT_THROW((void)qos::check_envelope(env, {run}), ConfigError);
  const qos::EnvelopeReport rep =
      qos::check_envelope(env, {run}, /*force=*/true);
  EXPECT_FALSE(rep.manifest_note.empty());
  EXPECT_TRUE(rep.pass());
}

// --- watchdog cross-check --------------------------------------------------

TEST(SlaWatchdogEnvelope, ExcursionTripsManagerFallback) {
  soc::SocConfig cfg;
  soc::Soc chip(cfg);
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.max_iterations = 0;  // run for the whole duration
  chip.add_core(cc, wl::make_pointer_chase({}));
  telemetry::AttributionEngine& eng =
      chip.enable_attribution(10 * sim::kPsPerUs);
  chip.enable_journal();

  qos::CertifiedEnvelope env = demo_envelope();
  // An absurd 1 ps p99 bound: every window with completions is an
  // excursion, so the cross-check must fire.
  env.masters["cpu"].max_p99_ps = 1.0;

  qos::QosManager mgr(chip.sim(), qos::QosManagerConfig{});
  mgr.set_envelope(&env);
  mgr.set_journal(chip.journal());
  mgr.add_port("hp0", 1, chip.regfile(1));
  ASSERT_TRUE(mgr.reserve(1, 1e9));

  qos::SlaWatchdog dog(eng, chip.telemetry().metrics());
  dog.set_journal(chip.journal());
  dog.set_envelope(&env, &mgr);
  dog.watch(chip.cpu_port(), qos::SlaSpec{});  // envelope cross-check only

  chip.run_for(sim::kPsPerMs);
  chip.finish_telemetry();

  EXPECT_GT(chip.telemetry()
                .metrics()
                .counter("qos.sla.cpu.envelope_excursions")
                .value(),
            0u);
  EXPECT_TRUE(mgr.envelope_fallback());
  // No plain SLA objective was armed, so the only trips are envelope ones.
  EXPECT_TRUE(dog.violations().empty());
  bool watchdog_entry = false;
  bool manager_entry = false;
  for (const auto& e : chip.journal()->entries()) {
    if (e.action == "envelope_violated" && e.component == "sla.cpu") {
      watchdog_entry = true;
    }
    if (e.action == "envelope_violated" && e.component == "qos.manager") {
      manager_entry = true;
      EXPECT_NE(e.detail.find("source=sla.cpu"), std::string::npos);
    }
  }
  EXPECT_TRUE(watchdog_entry);
  EXPECT_TRUE(manager_entry);
}

// --- replay ----------------------------------------------------------------

TEST(ContentionSearch, ReplayExportsCheckableMetrics) {
  search::SearchSpec spec = tiny_search_spec();
  spec.budget_evals = 2;  // spent by the coordinate phase alone
  spec.validate_seeds = 1;
  exec::ScenarioRunner runner({0, 21});
  const search::SearchOutcome out =
      search::run_search(spec, runner, "", false);
  ASSERT_FALSE(out.interrupted);

  // Replay at the first validation seed and export the measured metrics;
  // by construction that replay's measurements folded into the bounds, so
  // the bounds-vs-measured check passes.
  const std::string metrics_path = "/tmp/fgqos_test_replay_metrics.json";
  const std::uint64_t seed = out.envelope.validate_seeds.front();
  const search::EvalResult replay = search::replay_envelope(
      out.envelope, seed, /*regulated=*/true, nullptr, metrics_path);
  EXPECT_GT(replay.iter_mean_ps, 0.0);

  telemetry::RunData run;
  run.label = "replay";
  run.load_metrics_json(metrics_path);
  EXPECT_TRUE(run.has_manifest);
  const qos::EnvelopeReport rep = qos::check_envelope(out.envelope, {run});
  EXPECT_TRUE(rep.pass()) << (rep.excursions.empty()
                                  ? ""
                                  : rep.excursions.front());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace fgqos

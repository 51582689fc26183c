/// \file search.hpp
/// \brief The contention-search driver: optimizer loop, evaluation cache,
///        resumable journal, envelope construction.
///
/// run_search() owns the propose → evaluate → observe loop. Evaluations
/// fan out through an exec::ScenarioRunner (so --jobs parallelism applies)
/// and land in a cache keyed by the canonical config JSON; the optimizer
/// only ever sees scores read back from that cache, which makes the whole
/// search a deterministic function of (spec, seed) — independent of
/// worker count and resumable: a journal line is appended per completed
/// evaluation, and a resumed search pre-fills the cache from the journal,
/// replays the optimizer against the cached scores at full speed, and
/// continues exactly where the interrupted run stopped.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "exec/scenario_runner.hpp"
#include "qos/envelope.hpp"
#include "search/objective.hpp"

namespace fgqos::search {

/// Everything that shapes a certification search. All fields are
/// *semantic* (they feed spec_hash and the envelope manifest) except
/// none — execution mechanics (jobs, journal path) live outside.
struct SearchSpec {
  Objective objective = Objective::kSlowdown;
  std::uint64_t seed = 1;
  /// Unique attack configs to evaluate at most (each costs two sims:
  /// unregulated + regulated). The budget is checked at batch boundaries,
  /// so the last batch may overshoot slightly — deterministically.
  std::size_t budget_evals = 64;
  std::size_t restarts = 2;       ///< coordinate-descent restarts
  std::size_t mu = 4;             ///< ES parents
  std::size_t lambda = 8;         ///< ES offspring per generation
  std::size_t generations = 4;    ///< ES generations
  EvalSpec eval;
  double capacity_bps = 16e9;
  double max_reservable_frac = 0.85;
  /// Safety margin folded into every certified bound (0.10 = bounds are
  /// 10% beyond the worst measurement).
  double margin = 0.10;
  /// Validation replays of the regulated argmax at seeds
  /// seed+1 .. seed+validate_seeds; their measurements fold into the
  /// bounds, so a bounds-vs-measured replay at any of these seeds passes
  /// by construction.
  std::size_t validate_seeds = 10;
  /// Canonical JSON of the composed fault plan ("" = none); informational
  /// next to eval.faults, feeds spec/fault hashes.
  std::string fault_spec_json;

  /// Canonical one-line rendering of every semantic field (the manifest
  /// scenario string; its FNV-1a is the journal/envelope spec_hash).
  [[nodiscard]] std::string canonical() const;
  [[nodiscard]] std::string spec_hash() const;
};

/// Progress callback payload, invoked after every observed batch and
/// after validation. Tests use the hook to request_stop() at a
/// deterministic point mid-search.
struct SearchProgress {
  std::string phase;        ///< "coord", "es" or "validate"
  std::size_t batch = 0;    ///< batches observed so far
  std::size_t evaluations = 0;  ///< unique configs evaluated
  double best_objective = 0.0;
  std::string best_config_json;
};
using ProgressFn = std::function<void(const SearchProgress&)>;

/// Search result.
struct SearchOutcome {
  qos::CertifiedEnvelope envelope;
  /// True when the runner was stopped mid-search: the journal holds every
  /// completed evaluation and the envelope is NOT valid (partial).
  bool interrupted = false;
};

/// Runs the whole certification search. \p journal_path "" disables
/// journaling (the search is then not resumable); \p resume pre-fills
/// the cache from an existing journal (spec/space hashes must match) and
/// appends to it. Throws ConfigError on spec errors, journal mismatches,
/// or failed evaluation jobs.
[[nodiscard]] SearchOutcome run_search(const SearchSpec& spec,
                                       exec::ScenarioRunner& runner,
                                       const std::string& journal_path,
                                       bool resume,
                                       const ProgressFn& progress = nullptr);

/// Re-evaluates \p env's argmax attack at \p sim_seed, reconstructing the
/// evaluation scenario from the envelope's provenance (used by
/// `fgqos_certify --replay` and the CI bounds-vs-measured gate).
/// \p faults must be the same plan the certification composed (nullptr
/// when fault_spec_hash is empty). A non-empty \p metrics_json_path
/// exports the replay's metrics snapshot, manifest-stamped from the
/// envelope, ready for `fgqos_report --envelope --measured`. \p obs and
/// \p after_run observe the replay as in evaluate_attack().
[[nodiscard]] EvalResult replay_envelope(
    const qos::CertifiedEnvelope& env, std::uint64_t sim_seed, bool regulated,
    const fault::FaultPlan* faults,
    const std::string& metrics_json_path = "",
    const scenario::Observers& obs = {},
    const std::function<void(soc::Soc&)>& after_run = nullptr);

}  // namespace fgqos::search

/// \file optimizer.hpp
/// \brief Pluggable batch optimizers over the attack space.
///
/// The search driver runs a propose/observe loop: the optimizer proposes
/// a batch of configs, the driver evaluates them (through the
/// ScenarioRunner, with caching), and hands every score back via
/// observe(). Optimizers are strictly deterministic functions of their
/// seed and the observed scores — never of wall-clock, evaluation order
/// within a batch, or --jobs — which is what makes searches
/// jobs-invariant and resumable.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "search/attack_space.hpp"
#include "sim/random.hpp"

namespace fgqos::search {

/// The propose/observe interface.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Next batch of candidate configs (normalized, possibly already seen
  /// by the driver's cache). Empty = the optimizer is done.
  [[nodiscard]] virtual std::vector<AttackConfig> propose() = 0;

  /// Scores for the exact batch the last propose() returned (same order;
  /// higher is worse-for-the-victim, i.e. better for the search).
  virtual void observe(const std::vector<double>& scores) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Random-restart greedy coordinate descent: from each start point (the
/// hand-written EXP1 mix first, then random restarts), repeatedly
/// proposes every single-dimension neighbour of the incumbent and moves
/// to the best strictly-improving one until a whole pass yields no
/// improvement.
class CoordinateDescent final : public Optimizer {
 public:
  CoordinateDescent(std::uint64_t seed, std::size_t restarts);

  [[nodiscard]] std::vector<AttackConfig> propose() override;
  void observe(const std::vector<double>& scores) override;
  [[nodiscard]] const char* name() const override { return "coord"; }

 private:
  [[nodiscard]] AttackConfig random_config();
  void start_restart();

  sim::Xoshiro256 rng_;
  std::size_t restarts_;
  std::size_t restart_ = 0;
  bool need_init_ = true;      ///< pending propose of the incumbent itself
  AttackConfig current_{};
  double current_score_ = 0.0;
  std::vector<AttackConfig> batch_;
  bool done_ = false;
};

/// (mu, lambda) evolution strategy over the categorical space: lambda
/// offspring per generation, each a per-dimension mutation of a uniformly
/// chosen parent; the mu best offspring of the generation become the next
/// parents (comma selection; elitism comes from the driver-side cache
/// keeping the global best).
class MuLambdaES final : public Optimizer {
 public:
  MuLambdaES(std::uint64_t seed, std::size_t mu, std::size_t lambda,
             std::size_t generations);

  /// Optional warm start: installs up to mu elite configs as the initial
  /// parent pool (used by the "both" pipeline to hand the coordinate
  /// phase's top results to the ES). Call before the first propose().
  void seed_parents(const std::vector<AttackConfig>& elites);

  [[nodiscard]] std::vector<AttackConfig> propose() override;
  void observe(const std::vector<double>& scores) override;
  [[nodiscard]] const char* name() const override { return "es"; }

 private:
  [[nodiscard]] AttackConfig random_config();
  [[nodiscard]] AttackConfig mutate(const AttackConfig& parent);

  sim::Xoshiro256 rng_;
  std::size_t mu_;
  std::size_t lambda_;
  std::size_t generations_;
  std::size_t generation_ = 0;
  std::vector<AttackConfig> parents_;
  std::vector<AttackConfig> batch_;
};

}  // namespace fgqos::search

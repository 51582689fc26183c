#include "search/optimizer.hpp"

#include <algorithm>
#include <numeric>

namespace fgqos::search {
namespace {

/// Domain-separation constants mixed into the optimizer RNG seeds so the
/// two optimizers (and the evaluator's sim seeds) draw from unrelated
/// streams even for equal user seeds.
constexpr std::uint64_t kCoordSeedSalt = 0x636f6f7264'5345ULL;  // "coord"
constexpr std::uint64_t kEsSeedSalt = 0x65732d6d75'6cULL;       // "es-mul"

}  // namespace

// --- CoordinateDescent -----------------------------------------------------

CoordinateDescent::CoordinateDescent(std::uint64_t seed, std::size_t restarts)
    : rng_(seed ^ kCoordSeedSalt), restarts_(std::max<std::size_t>(1, restarts)) {
  start_restart();
}

AttackConfig CoordinateDescent::random_config() {
  AttackConfig c;
  for (std::size_t d = 0; d < kNumDims; ++d) {
    c.choice[d] =
        static_cast<std::uint8_t>(rng_.next_below(AttackSpace::dim_size(d)));
  }
  return AttackSpace::normalize(c);
}

void CoordinateDescent::start_restart() {
  // Restart 0 starts from the hand-written EXP1 mix: the search is then
  // guaranteed to have measured the paper's baseline (the envelope's
  // exp1_mix_objective) and can only improve on it.
  current_ = restart_ == 0 ? AttackSpace::exp1_mix() : random_config();
  need_init_ = true;
}

std::vector<AttackConfig> CoordinateDescent::propose() {
  if (done_) return {};
  if (need_init_) {
    batch_ = {current_};
    return batch_;
  }
  // One full pass: every single-dimension neighbour of the incumbent.
  batch_.clear();
  for (std::size_t d = 0; d < kNumDims; ++d) {
    for (std::size_t v = 0; v < AttackSpace::dim_size(d); ++v) {
      if (v == current_.choice[d]) continue;
      AttackConfig n = current_;
      n.choice[d] = static_cast<std::uint8_t>(v);
      n = AttackSpace::normalize(n);
      if (n == current_) continue;  // normalization collapsed the move
      if (std::find(batch_.begin(), batch_.end(), n) != batch_.end()) continue;
      batch_.push_back(n);
    }
  }
  return batch_;
}

void CoordinateDescent::observe(const std::vector<double>& scores) {
  if (done_ || scores.size() != batch_.size()) return;
  if (need_init_) {
    need_init_ = false;
    current_score_ = scores.at(0);
    return;
  }
  std::size_t best_i = batch_.size();
  double best_s = current_score_;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    if (scores[i] > best_s) {
      best_s = scores[i];
      best_i = i;
    }
  }
  if (best_i < batch_.size()) {
    current_ = batch_[best_i];
    current_score_ = best_s;
    return;  // improved: another neighbour pass around the new incumbent
  }
  // Converged for this restart.
  ++restart_;
  if (restart_ >= restarts_) {
    done_ = true;
  } else {
    start_restart();
  }
}

// --- MuLambdaES ------------------------------------------------------------

MuLambdaES::MuLambdaES(std::uint64_t seed, std::size_t mu, std::size_t lambda,
                       std::size_t generations)
    : rng_(seed ^ kEsSeedSalt),
      mu_(std::max<std::size_t>(1, mu)),
      lambda_(std::max(lambda, mu_)),
      generations_(generations) {}

void MuLambdaES::seed_parents(const std::vector<AttackConfig>& elites) {
  parents_.clear();
  for (const auto& c : elites) {
    if (parents_.size() >= mu_) break;
    parents_.push_back(AttackSpace::normalize(c));
  }
}

AttackConfig MuLambdaES::random_config() {
  AttackConfig c;
  for (std::size_t d = 0; d < kNumDims; ++d) {
    c.choice[d] =
        static_cast<std::uint8_t>(rng_.next_below(AttackSpace::dim_size(d)));
  }
  return AttackSpace::normalize(c);
}

AttackConfig MuLambdaES::mutate(const AttackConfig& parent) {
  AttackConfig c = parent;
  bool changed = false;
  for (std::size_t d = 0; d < kNumDims; ++d) {
    if (!rng_.next_bool(1.0 / static_cast<double>(kNumDims))) continue;
    const auto nv = rng_.next_below(AttackSpace::dim_size(d));
    changed = changed || nv != c.choice[d];
    c.choice[d] = static_cast<std::uint8_t>(nv);
  }
  if (!changed) {
    // Force at least one move so offspring never silently equal their
    // parent (a wasted evaluation slot).
    const auto d = static_cast<std::size_t>(rng_.next_below(kNumDims));
    const auto size = AttackSpace::dim_size(d);
    c.choice[d] = static_cast<std::uint8_t>(
        (c.choice[d] + 1 + rng_.next_below(size - 1)) % size);
  }
  return AttackSpace::normalize(c);
}

std::vector<AttackConfig> MuLambdaES::propose() {
  if (generation_ >= generations_) return {};
  batch_.clear();
  batch_.reserve(lambda_);
  for (std::size_t i = 0; i < lambda_; ++i) {
    if (parents_.empty()) {
      batch_.push_back(random_config());
    } else {
      const auto& parent = parents_[rng_.next_below(parents_.size())];
      batch_.push_back(mutate(parent));
    }
  }
  return batch_;
}

void MuLambdaES::observe(const std::vector<double>& scores) {
  if (scores.size() != batch_.size()) return;
  std::vector<std::size_t> order(batch_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&scores](auto a, auto b) {
    return scores[a] > scores[b];
  });
  parents_.clear();
  for (std::size_t i = 0; i < order.size() && parents_.size() < mu_; ++i) {
    parents_.push_back(batch_[order[i]]);
  }
  ++generation_;
}

}  // namespace fgqos::search

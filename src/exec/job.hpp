/// \file job.hpp
/// \brief Job identity and deterministic per-job seed derivation.
///
/// A job is one independent simulation point (one Soc built, run and torn
/// down). Everything a job may vary on is carried in the JobContext, and
/// every field of the context is a pure function of the submission — never
/// of scheduling — so a job's outcome is bit-identical whether it runs on
/// one worker or eight.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fgqos::exec {

/// Identity handed to every job by the ScenarioRunner.
struct JobContext {
  /// Submission index (0-based). Results are merged in this order.
  std::size_t index = 0;
  /// derive_seed(base_seed, index): the only RNG seed a job may use.
  std::uint64_t seed = 0;
};

/// SplitMix64 finalizer — the same avalanche step sim::Xoshiro256 uses to
/// expand its seed, so per-job streams are as decorrelated as the
/// generator's own state words.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Derives job \p index's RNG seed from the batch \p base seed. Two
/// mixing rounds keep nearby (base, index) pairs uncorrelated; the result
/// depends only on (base, index), never on worker count or schedule.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base,
                                                  std::size_t index) {
  return splitmix64(splitmix64(base) ^
                    (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1)));
}

}  // namespace fgqos::exec

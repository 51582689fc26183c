#include "measure.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

namespace simbench {

Stats output_stats(soc::Soc& chip) {
  sim::StatsRegistry reg;
  chip.collect_stats(reg);
  Stats out;
  for (const auto& [name, value] : reg.all()) {
    if (!name.starts_with("sim.")) {
      out.emplace(name, value);
    }
  }
  return out;
}

bool is_observer_key(std::string_view key) {
  return key.starts_with("attr.") || key.starts_with("telemetry.") ||
         key.starts_with("qos.sla.");
}

std::uint64_t digest(const Stats& stats, bool skip_observer_keys) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (const auto& [name, value] : stats) {
    if (skip_observer_keys && is_observer_key(name)) {
      continue;
    }
    for (const char c : name) {
      mix(static_cast<unsigned char>(c));
    }
    mix(0);
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      mix((bits >> (8 * i)) & 0xff);
    }
  }
  return h;
}

WorkCounts work_counts(Scenario& s) {
  soc::Soc& chip = *s.chip;
  WorkCounts w;
  w.sim_us = static_cast<double>(chip.now()) / sim::kPsPerUs;
  for (const Component& c : s.components) {
    w.ticks[static_cast<std::size_t>(c.layer)] += c.clocked->ticks_fired();
  }
  for (std::size_t ch = 0; ch < chip.dram_channel_count(); ++ch) {
    const auto& ds = chip.dram(ch).stats();
    w.dram_cas += ds.reads_serviced.value() + ds.writes_serviced.value();
  }
  w.xbar_lines =
      chip.xbar().total_bytes_granted() / chip.config().cpu_port.line_bytes;
  w.events = chip.sim().events_dispatched();
  w.kernel_ticks = chip.sim().tick_count();
  w.max_event_queue = chip.sim().max_event_queue();
  return w;
}

std::optional<Layer> layer_of_tag(std::string_view tag, const Scenario& s) {
  if (tag.starts_with("tick.")) {
    const std::string_view name = tag.substr(5);
    for (const Component& c : s.components) {
      if (c.clocked->name() == name) {
        return c.layer;
      }
    }
    return std::nullopt;
  }
  static constexpr std::pair<std::string_view, Layer> kPrefixes[] = {
      {"dram.", Layer::kDram},         {"axi.", Layer::kAxi},
      {"workload.", Layer::kWorkload}, {"qos.", Layer::kQos},
      {"telemetry.", Layer::kTelemetry}, {"kernel.", Layer::kSim},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (tag.starts_with(prefix)) {
      return layer;
    }
  }
  return std::nullopt;
}

double LayerCycles::coverage() const {
  std::uint64_t mapped = 0;
  for (const std::uint64_t c : cycles) {
    mapped += c;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(mapped) / static_cast<double>(total);
}

void LayerCycles::add(const LayerCycles& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    cycles[i] += o.cycles[i];
  }
  total += o.total;
}

LayerCycles group_by_layer(const fgqos::telemetry::ProfileSnapshot& snap,
                           const Scenario& s) {
  LayerCycles out;
  out.total = snap.total_cycles;
  for (const auto& tag : snap.tags) {
    if (const std::optional<Layer> l = layer_of_tag(tag.name, s)) {
      out.cycles[static_cast<std::size_t>(*l)] += tag.cycles;
    }
  }
  return out;
}

namespace {

/// One random cycle through n slots (Sattolo's shuffle, fixed seed).
std::vector<std::uint32_t> make_ring(std::uint32_t n) {
  std::vector<std::uint32_t> ring(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ring[i] = i;
  }
  std::uint64_t s = 0x2545F4914F6CDD1Dull;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(ring[i], ring[static_cast<std::uint32_t>((s >> 33) % i)]);
  }
  return ring;
}

using StepFn = std::uint64_t (*)(std::uint64_t);

template <int K>
std::uint64_t step(std::uint64_t x) {
  return (x ^ (x >> (K % 31 + 1))) * (0x9E3779B97F4A7C15ull + K);
}

template <int... K>
constexpr std::array<StepFn, sizeof...(K)> step_table(
    std::integer_sequence<int, K...>) {
  return {&step<K>...};
}

volatile std::uint64_t g_yardstick_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Untimed sequential pass, so the timed chase finds the ring in the
/// caches whatever the simulator left there: it measures the host, not
/// the model's footprint.
std::uint64_t touch(const std::vector<std::uint32_t>& ring) {
  std::uint64_t acc = 0;
  for (const std::uint32_t v : ring) {
    acc += v;
  }
  return acc;
}

double core_part_s() {
  static const std::vector<std::uint32_t> ring = make_ring(1u << 18);
  static constexpr auto table = step_table(std::make_integer_sequence<int, 64>{});
  std::uint64_t acc = touch(ring);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t i = 0;
  std::uint64_t h = 88172645463325252ull;
  for (int k = 0; k < 200'000; ++k) {
    i = ring[i];
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    acc = table[(h ^ i) & 63](acc + i);
    if (((h >> 40) & 1) != 0) {
      acc += 7;
    } else {
      acc ^= 3;
    }
  }
  g_yardstick_sink = acc;
  return seconds_since(t0);
}

double memory_part_s() {
  static const std::vector<std::uint32_t> ring = make_ring(1u << 20);
  std::uint64_t acc = touch(ring);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t i = 0;
  for (int k = 0; k < 60'000; ++k) {
    i = ring[i];
    acc += i;
  }
  g_yardstick_sink = acc;
  return seconds_since(t0);
}

/// Times of the two parts on the reference host, undisturbed, rounded.
/// They only scale the normalised figures.
constexpr double kCoreRefS = 4.0e-3;
constexpr double kMemoryRefS = 4.0e-3;

}  // namespace

double host_slowdown() {
  const double core = core_part_s() / kCoreRefS;
  return std::sqrt(core * memory_part_s() / kMemoryRefS);
}

}  // namespace simbench

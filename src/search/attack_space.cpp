#include "search/attack_space.hpp"

#include <algorithm>
#include <sstream>

#include "telemetry/manifest.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos::search {
namespace {

template <typename Catalog, typename V>
std::uint8_t index_of(const Catalog& cat, const V& v, const char* dim) {
  auto it = std::find(cat.begin(), cat.end(), v);
  if (it == cat.end()) {
    throw ConfigError(std::string("attack config: value out of catalog for ") +
                            dim);
  }
  return static_cast<std::uint8_t>(it - cat.begin());
}

}  // namespace

std::size_t AttackSpace::dim_size(std::size_t d) {
  switch (d) {
    case kDimCount: return kCounts.size();
    case kDimPattern: return kPatterns.size();
    case kDimBurst: return kBursts.size();
    case kDimStride: return kStrides.size();
    case kDimOutstanding: return kOutstanding.size();
    case kDimBankFocus: return kBankFocus.size();
    case kDimPhase: return kPhases.size();
    default: return 0;
  }
}

AttackConfig AttackSpace::normalize(AttackConfig c) {
  for (std::size_t d = 0; d < kNumDims; ++d) {
    c.choice[d] = static_cast<std::uint8_t>(c.choice[d] % dim_size(d));
  }
  if (kPatterns[c.choice[kDimPattern]] != wl::Pattern::kStrided) {
    c.choice[kDimStride] = 0;
  }
  return c;
}

AttackConfig AttackSpace::exp1_mix() {
  AttackConfig c;
  c.choice[kDimCount] = index_of(kCounts, 4, "count");
  c.choice[kDimPattern] = index_of(kPatterns, wl::Pattern::kSeqRead, "pattern");
  c.choice[kDimBurst] = index_of(kBursts, std::uint32_t{1024}, "burst");
  c.choice[kDimStride] = 0;
  c.choice[kDimOutstanding] = index_of(kOutstanding, std::size_t{4}, "outstanding");
  c.choice[kDimBankFocus] = 0;
  c.choice[kDimPhase] = 0;
  return normalize(c);
}

std::string AttackSpace::to_json(const AttackConfig& cfg) {
  const AttackConfig c = normalize(cfg);
  const wl::Pattern pat = kPatterns[c.choice[kDimPattern]];
  const bool strided = pat == wl::Pattern::kStrided;
  const auto& phase = kPhases[c.choice[kDimPhase]];
  std::ostringstream os;
  os << "{\"bank_focus\":" << kBankFocus[c.choice[kDimBankFocus]]
     << ",\"burst_bytes\":" << kBursts[c.choice[kDimBurst]]
     << ",\"count\":" << kCounts[c.choice[kDimCount]]
     << ",\"outstanding\":" << kOutstanding[c.choice[kDimOutstanding]]
     << ",\"pattern\":\"" << wl::pattern_name(pat) << "\""
     << ",\"phase_us\":[" << phase[0] << ',' << phase[1] << ']'
     << ",\"stride_bytes\":" << (strided ? kStrides[c.choice[kDimStride]] : 0)
     << '}';
  return os.str();
}

AttackConfig AttackSpace::from_json(const util::JsonValue& v) {
  AttackConfig c;
  c.choice[kDimCount] =
      index_of(kCounts, static_cast<int>(v.at("count").as_number()), "count");
  c.choice[kDimPattern] = index_of(
      kPatterns, wl::pattern_from_name(v.at("pattern").as_string()),
      "pattern");
  c.choice[kDimBurst] = index_of(
      kBursts, static_cast<std::uint32_t>(v.at("burst_bytes").as_number()),
      "burst_bytes");
  const auto stride = static_cast<std::uint64_t>(v.at("stride_bytes").as_number());
  c.choice[kDimStride] =
      stride == 0 ? std::uint8_t{0} : index_of(kStrides, stride, "stride_bytes");
  c.choice[kDimOutstanding] = index_of(
      kOutstanding, static_cast<std::size_t>(v.at("outstanding").as_number()),
      "outstanding");
  c.choice[kDimBankFocus] = index_of(
      kBankFocus, static_cast<int>(v.at("bank_focus").as_number()), "bank_focus");
  const auto& phase = v.at("phase_us").as_array();
  if (phase.size() != 2) {
    throw ConfigError("attack config: phase_us must be [active,idle]");
  }
  const std::array<std::uint32_t, 2> ph = {
      static_cast<std::uint32_t>(phase[0].as_number()),
      static_cast<std::uint32_t>(phase[1].as_number())};
  c.choice[kDimPhase] = index_of(kPhases, ph, "phase_us");
  return normalize(c);
}

std::vector<wl::TrafficGenConfig> AttackSpace::to_traffic_gens(
    const AttackConfig& cfg, std::uint64_t seed) {
  const AttackConfig c = normalize(cfg);
  const int count = kCounts[c.choice[kDimCount]];
  const bool focus = kBankFocus[c.choice[kDimBankFocus]] != 0;
  const auto& phase = kPhases[c.choice[kDimPhase]];
  std::vector<wl::TrafficGenConfig> gens;
  gens.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "atk" + std::to_string(i);
    tg.pattern = kPatterns[c.choice[kDimPattern]];
    tg.burst_bytes = kBursts[c.choice[kDimBurst]];
    tg.stride_bytes = kStrides[c.choice[kDimStride]];
    tg.max_outstanding = kOutstanding[c.choice[kDimOutstanding]];
    if (focus) {
      // Every generator hammers the same 4 MiB region: maximal row-buffer
      // and bank conflicts with the victim's neighbourhood.
      tg.base = 0x8000'0000;
      tg.footprint_bytes = 4ull << 20;
    } else {
      tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
      tg.footprint_bytes = 16ull << 20;
    }
    tg.active_ps = static_cast<sim::TimePs>(phase[0]) * 1'000'000;
    tg.idle_ps = static_cast<sim::TimePs>(phase[1]) * 1'000'000;
    tg.seed = seed + static_cast<std::uint64_t>(i);
    gens.push_back(tg);
  }
  return gens;
}

std::string AttackSpace::space_hash() {
  std::ostringstream os;
  os << "counts:";
  for (int v : kCounts) os << v << ',';
  os << "patterns:";
  for (auto p : kPatterns) os << wl::pattern_name(p) << ',';
  os << "bursts:";
  for (auto v : kBursts) os << v << ',';
  os << "strides:";
  for (auto v : kStrides) os << v << ',';
  os << "outstanding:";
  for (auto v : kOutstanding) os << v << ',';
  os << "bank_focus:";
  for (int v : kBankFocus) os << v << ',';
  os << "phases:";
  for (const auto& ph : kPhases) os << ph[0] << '/' << ph[1] << ',';
  return telemetry::fnv1a_hex(os.str());
}

}  // namespace fgqos::search

/// \file scenario.hpp
/// \brief The benchmark's four workloads, assembled through the public
///        soc::Soc API, plus the span recorder that times each assembly step.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "qos/adaptive_controller.hpp"
#include "qos/latency_monitor.hpp"
#include "qos/sla_watchdog.hpp"
#include "soc/soc.hpp"

namespace simbench {

namespace sim = fgqos::sim;
namespace soc = fgqos::soc;

enum class Workload { kExp1Unreg, kExp1Hw, kCpuSolo, kServingDefended };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kExp1Unreg, Workload::kExp1Hw, Workload::kCpuSolo,
    Workload::kServingDefended};

[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);

/// Simulated span one repetition runs for (fixed per workload, so the work
/// per repetition does not depend on how fast the host is).
[[nodiscard]] sim::TimePs span_ps(Workload w);

/// True when the workload runs with attribution, time series and the
/// decision journal on by default (only serving_defended).
[[nodiscard]] bool default_observers(Workload w);

/// splitmix64 of (seed, stream): one independent seed per generator, core
/// and tenant, all derived from the benchmark's --seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// One timed interval. Spans of one repetition share run_id; parent is the
/// index of the enclosing span in the recorder, or -1 at the root.
struct Span {
  std::string name;
  std::uint64_t run_id = 0;
  int parent = -1;
  double start_s = 0;  ///< seconds since the recorder was created
  double end_s = 0;
};

/// In-memory span log, written out once at the end of a run.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  void set_run(std::uint64_t run_id) { run_id_ = run_id; }
  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string name);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the durations of closed spans of \p run_id whose name starts
  /// with \p prefix.
  [[nodiscard]] double total_s(std::uint64_t run_id,
                               std::string_view prefix) const;
  /// JSON array of spans.
  void write_json(std::ostream& os) const;

 private:
  [[nodiscard]] double now_s() const;

  std::chrono::steady_clock::time_point origin_;
  std::uint64_t run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, std::string name)
      : rec_(rec), index_(rec != nullptr ? rec->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) {
      rec_->close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// Layers of the host cost, named after the src/ modules.
enum class Layer : std::size_t {
  kDram, kAxi, kCpu, kWorkload, kQos, kTelemetry, kSim
};
inline constexpr std::size_t kLayerCount = 7;
[[nodiscard]] const char* layer_name(Layer l);

/// A clocked component the benchmark created, and the layer it belongs to.
struct Component {
  const sim::Clocked* clocked = nullptr;  ///< owned by the chip
  Layer layer = Layer::kSim;
};

struct ScenarioOptions {
  std::uint64_t seed = 1;
  bool profile = false;    ///< SocConfig::profile (the traced run)
  bool observers = false;  ///< attribution + time series + decision journal
};

/// One assembled workload. The chip is declared first so it outlives the
/// controllers that hold references into it.
struct Scenario {
  Workload workload = Workload::kExp1Unreg;
  ScenarioOptions options;
  std::unique_ptr<soc::Soc> chip;
  std::unique_ptr<fgqos::qos::LatencyMonitor> latency_monitor;
  std::unique_ptr<fgqos::qos::AdaptiveQosController> controller;
  std::unique_ptr<fgqos::qos::SlaWatchdog> watchdog;
  std::vector<fgqos::wl::TrafficGen*> generators;  ///< owned by the chip
  std::vector<Component> components;
};

/// Builds \p w: constructs the Soc and adds cores, generators, tenants,
/// regulators and observers, each inside its own span when \p spans is
/// given.
[[nodiscard]] Scenario build(Workload w, const ScenarioOptions& opts,
                             SpanRecorder* spans = nullptr);

/// Runs the scenario's fixed simulated span.
void run(Scenario& s, SpanRecorder* spans = nullptr);

/// Model invariants that hold for any seed; returns one message per
/// violation (empty when all hold).
[[nodiscard]] std::vector<std::string> check_invariants(Scenario& s);

}  // namespace simbench

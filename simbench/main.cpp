/// \file main.cpp
/// \brief simbench: runs one workload for a fixed host time and prints its
///        metrics as one JSON line.
///
///   simbench --workload NAME --seed N --seconds S --trace 0|1
///            [--reference FILE] [--spans-out FILE]
///            [--commit SHA] [--source-sha SHA]
///   simbench --record-reference N [--workload NAME]
///                                     # digests of seeds 0..N-1
///
/// --trace 0 repeats untraced runs and reports the end-to-end metrics,
/// scaled to the reference host by a yardstick timed around every run.
/// --trace 1 cycles through an untraced run, a profiled run and a run with
/// the observers toggled, and reports the per-layer metrics. Every run's
/// outputs are checked; a failed check counts as a failed operation.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "scenario.hpp"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif

using namespace simbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  Workload workload = Workload::kExp1Unreg;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string spans_out;
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  int record_seeds = 0;
  bool have_workload = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage_error("missing value for " + key);
    }
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        const auto w = workload_from_name(val);
        if (!w) {
          usage_error("unknown workload '" + val + "'");
        }
        a.workload = *w;
        a.have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (key == "--reference") {
        a.reference = val;
      } else if (key == "--spans-out") {
        a.spans_out = val;
      } else if (key == "--commit") {
        a.commit = val;
      } else if (key == "--source-sha") {
        a.source_sha = val;
      } else if (key == "--record-reference") {
        a.record_seeds = std::stoi(val);
      } else {
        usage_error("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value '" + val + "' for " + key);
    }
  }
  if (!a.have_workload && a.record_seeds == 0) {
    usage_error("--workload is required");
  }
  return a;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// "workload seed digest" lines; '#' starts a comment.
std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> load_reference(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> ref;
  if (path.empty()) {
    return ref;
  }
  std::ifstream in(path);
  if (!in) {
    usage_error("cannot read reference file " + path);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string w, d;
    std::uint64_t seed = 0;
    if (ls >> w >> seed >> d) {
      ref[{w, seed}] = std::stoull(d, nullptr, 16);
    }
  }
  return ref;
}

enum class RepKind { kPlain, kTraced, kToggled };

const char* rep_kind_name(RepKind k) {
  switch (k) {
    case RepKind::kPlain: return "plain";
    case RepKind::kTraced: return "traced";
    case RepKind::kToggled: return "observers_toggled";
  }
  return "?";
}

struct RepResult {
  RepKind kind = RepKind::kPlain;
  std::uint64_t scenario_seed = 0;
  double setup_s = 0;
  double run_s = 0;  ///< host seconds inside run_until
  WorkCounts counts;
  std::uint64_t digest = 0;
  std::uint64_t model_digest = 0;  ///< without observer keys
  std::vector<std::string> failures;
  LayerCycles layers;  ///< profiled reps only
  /// host_slowdown() around this repetition: above 1 while the host runs
  /// slower than the reference host.
  double host_factor = 1;

  [[nodiscard]] double sim_us_per_s() const {
    return ratio(counts.sim_us, run_s);
  }
  /// Simulated µs per second of the reference host.
  [[nodiscard]] double sim_us_per_ref_s() const {
    return sim_us_per_s() * host_factor;
  }
};

RepResult run_rep(Workload w, std::uint64_t seed, RepKind kind,
                  SpanRecorder* spans, std::uint64_t run_id) {
  if (spans != nullptr) {
    spans->set_run(run_id);
  }
  SpanScope rep_span(spans, std::string("rep.") + rep_kind_name(kind));
  RepResult r;
  r.kind = kind;
  r.scenario_seed = seed;
  ScenarioOptions opts;
  opts.seed = seed;
  opts.profile = kind == RepKind::kTraced;
  opts.observers = default_observers(w) != (kind == RepKind::kToggled);
  const double slowdown_before = host_slowdown();
  const Clock::time_point t0 = Clock::now();
  Scenario sc = build(w, opts, spans);
  r.setup_s = seconds_since(t0);
  run(sc, spans);
  r.run_s = static_cast<double>(sc.chip->sim().wall_ns()) * 1e-9;
  r.host_factor = (slowdown_before + host_slowdown()) / 2;
  {
    SpanScope check(spans, "check.output");
    const Stats stats = output_stats(*sc.chip);
    r.digest = digest(stats);
    r.model_digest = digest(stats, /*skip_observer_keys=*/true);
    r.failures = check_invariants(sc);
    r.counts = work_counts(sc);
  }
  if (const auto* prof = sc.chip->profiler()) {
    r.layers = group_by_layer(prof->snapshot(), sc);
  }
  return r;
}

/// Peak resident set of this process in MiB. VmHWM belongs to the address
/// space, so unlike getrusage's ru_maxrss it does not carry the peak of
/// the process that forked us across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Per-layer metrics from the reps of a --trace 1 run.
std::vector<Metric> layer_metrics(Workload w, const std::vector<RepResult>& reps,
                                  const SpanRecorder& spans) {
  const WorkCounts* counts = nullptr;
  LayerCycles cycles;
  double traced_wall_ns = 0;
  double traced_sim_us = 0;
  std::size_t traced = 0;
  std::vector<double> plain_rate, traced_rate, toggled_rate;
  std::vector<double> soc_setup, workload_setup;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    switch (r.kind) {
      case RepKind::kPlain:
        counts = counts != nullptr ? counts : &r.counts;
        plain_rate.push_back(r.sim_us_per_s());
        break;
      case RepKind::kTraced: {
        cycles.add(r.layers);
        traced_wall_ns += r.run_s * 1e9;
        traced_sim_us += r.counts.sim_us;
        ++traced;
        traced_rate.push_back(r.sim_us_per_s());
        const double soc_s = spans.total_s(i, "soc.construct");
        soc_setup.push_back(soc_s);
        workload_setup.push_back(spans.total_s(i, "setup") - soc_s);
        break;
      }
      case RepKind::kToggled:
        toggled_rate.push_back(r.sim_us_per_s());
        break;
    }
  }
  const WorkCounts& c = *counts;
  const double ns_per_cycle =
      ratio(traced_wall_ns, static_cast<double>(cycles.total));
  const auto layer_ns = [&](Layer l) {  // host ns over all traced reps
    return static_cast<double>(cycles.cycles[static_cast<std::size_t>(l)]) *
           ns_per_cycle;
  };
  const auto ns_per_sim_us = [&](Layer l) {
    return ratio(layer_ns(l), traced_sim_us);
  };
  const auto ticks = [&](Layer l) {
    return static_cast<double>(c.ticks[static_cast<std::size_t>(l)]);
  };
  const auto ns_per_tick = [&](Layer l) {
    return ratio(layer_ns(l), ticks(l) * static_cast<double>(traced));
  };
  const auto per_sim_us = [&](double n) { return ratio(n, c.sim_us); };
  std::cerr << "layer shares of profiled cycles:" << std::setprecision(3);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::cerr << " " << layer_name(static_cast<Layer>(l)) << " "
              << ratio(static_cast<double>(cycles.cycles[l]),
                       static_cast<double>(cycles.total));
  }
  std::cerr << "\n";
  // Observer overhead: wall with observers on / off, minus 1. The toggled
  // reps turn them on for every workload but serving_defended, where they
  // are on by default and the toggled reps turn them off.
  const double on = median(default_observers(w) ? plain_rate : toggled_rate);
  const double off = median(default_observers(w) ? toggled_rate : plain_rate);
  return {
      {"dram.host_ns_per_sim_us", ns_per_sim_us(Layer::kDram), "ns/us"},
      {"dram.host_ns_per_tick", ns_per_tick(Layer::kDram), "ns"},
      {"dram.ticks_per_sim_us", per_sim_us(ticks(Layer::kDram)), "1/us"},
      {"dram.cas_per_tick",
       ratio(static_cast<double>(c.dram_cas), ticks(Layer::kDram)), "ratio"},
      {"axi.host_ns_per_sim_us", ns_per_sim_us(Layer::kAxi), "ns/us"},
      {"axi.host_ns_per_tick", ns_per_tick(Layer::kAxi), "ns"},
      {"axi.ticks_per_sim_us", per_sim_us(ticks(Layer::kAxi)), "1/us"},
      {"axi.lines_per_tick",
       ratio(static_cast<double>(c.xbar_lines), ticks(Layer::kAxi)), "ratio"},
      {"cpu.host_ns_per_sim_us", ns_per_sim_us(Layer::kCpu), "ns/us"},
      {"cpu.host_ns_per_tick", ns_per_tick(Layer::kCpu), "ns"},
      {"cpu.ticks_per_sim_us", per_sim_us(ticks(Layer::kCpu)), "1/us"},
      {"workload.host_ns_per_sim_us", ns_per_sim_us(Layer::kWorkload),
       "ns/us"},
      {"workload.ticks_per_sim_us", per_sim_us(ticks(Layer::kWorkload)),
       "1/us"},
      {"qos.host_ns_per_sim_us", ns_per_sim_us(Layer::kQos), "ns/us"},
      {"telemetry.host_ns_per_sim_us", ns_per_sim_us(Layer::kTelemetry),
       "ns/us"},
      // sim_us_per_s is a rate, so wall on / wall off = rate off / rate on.
      {"telemetry.observer_overhead", ratio(off, on) - 1.0, "ratio"},
      {"sim.host_ns_per_sim_us", ns_per_sim_us(Layer::kSim), "ns/us"},
      {"sim.events_per_sim_us", per_sim_us(static_cast<double>(c.events)),
       "1/us"},
      {"sim.ticks_per_sim_us", per_sim_us(static_cast<double>(c.kernel_ticks)),
       "1/us"},
      {"sim.max_event_queue", static_cast<double>(c.max_event_queue), "count"},
      {"soc.setup_s", median(soc_setup), "s"},
      {"workload.setup_s", median(workload_setup), "s"},
      {"trace.overhead", ratio(median(plain_rate), median(traced_rate)) - 1.0,
       "ratio"},
      {"trace.coverage", cycles.coverage(), "ratio"},
  };
}

/// Scenario seeds a run with \p seed cycles through: \p seed itself, then
/// seeds derived from it. The host time of serving_defended depends on the
/// seed (about ±8% between single seeds, though its exact work counts move
/// only ±2%), so its rate is averaged over eight seeds. The other
/// workloads' work moves well under 0.1% with the seed, and traced runs
/// compare kinds of repetition, so those run the one seed.
std::vector<std::uint64_t> scenario_seeds(Workload w, std::uint64_t seed,
                                          bool trace) {
  std::vector<std::uint64_t> seeds{seed};
  if (w == Workload::kServingDefended && !trace) {
    for (std::uint64_t k = 1; k < 8; ++k) {
      seeds.push_back(mix_seed(seed, 1000 + k));
    }
  }
  return seeds;
}

/// Mean over scenario seeds of the median over that seed's repetitions.
template <class Fn>
double mean_of_seed_medians(const std::vector<RepResult>& reps, Fn metric) {
  std::map<std::uint64_t, std::vector<double>> by_seed;
  for (const RepResult& r : reps) {
    by_seed[r.scenario_seed].push_back(metric(r));
  }
  double sum = 0;
  for (const auto& [seed, values] : by_seed) {
    sum += median(values);
  }
  return ratio(sum, static_cast<double>(by_seed.size()));
}

int record_reference(int seeds, std::optional<Workload> only) {
  std::cout << "# workload seed digest: output digest of one run per "
               "scenario seed\n"
            << "# written by: simbench --record-reference " << seeds << "\n";
  for (const Workload w : kAllWorkloads) {
    if (only && w != *only) {
      continue;
    }
    for (int s = 0; s < seeds; ++s) {
      for (const std::uint64_t sc :
           scenario_seeds(w, static_cast<std::uint64_t>(s), false)) {
        const RepResult r = run_rep(w, sc, RepKind::kPlain, nullptr, 0);
        if (!r.failures.empty()) {
          std::cerr << workload_name(w) << " seed " << sc << ": "
                    << r.failures.front() << "\n";
          return 1;
        }
        std::cout << workload_name(w) << " " << sc << " " << hex(r.digest)
                  << std::endl;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.record_seeds > 0) {
    return record_reference(args.record_seeds,
                            args.have_workload
                                ? std::optional<Workload>(args.workload)
                                : std::nullopt);
  }
  const auto ref = load_reference(args.reference);
  const std::string wname = workload_name(args.workload);
  const std::vector<std::uint64_t> seeds =
      scenario_seeds(args.workload, args.seed, args.trace);
  std::map<std::uint64_t, std::uint64_t> expect_digest;
  for (const std::uint64_t sc : seeds) {
    if (const auto it = ref.find({wname, sc}); it != ref.end()) {
      expect_digest[sc] = it->second;
    }
  }
  const bool recorded = expect_digest.size() == seeds.size();

  SpanRecorder spans;
  SpanRecorder* span_rec = args.trace ? &spans : nullptr;
  const std::vector<RepKind> cycle =
      args.trace ? std::vector<RepKind>{RepKind::kPlain, RepKind::kTraced,
                                        RepKind::kToggled}
                 : std::vector<RepKind>{RepKind::kPlain};

  std::vector<RepResult> reps;
  std::size_t failed = 0;
  // Per scenario seed: digest without observer keys, exact work counts.
  std::map<std::uint64_t, std::uint64_t> expect_model;
  std::map<std::uint64_t, WorkCounts> expect_counts;
  (void)host_slowdown();  // builds the rings outside any repetition
  const Clock::time_point t0 = Clock::now();
  while (reps.size() < cycle.size() * seeds.size() ||
         seconds_since(t0) < args.seconds) {
    const RepKind kind = cycle[reps.size() % cycle.size()];
    const std::uint64_t sc =
        seeds[(reps.size() / cycle.size()) % seeds.size()];
    RepResult r = run_rep(args.workload, sc, kind, span_rec, reps.size());
    if (kind != RepKind::kToggled) {
      // No recorded reference: the first repetition is the reference.
      const auto [want, unused] = expect_digest.try_emplace(sc, r.digest);
      if (r.digest != want->second) {
        r.failures.push_back("output digest " + hex(r.digest) +
                             " != reference " + hex(want->second));
      }
      expect_model.try_emplace(sc, r.model_digest);
    } else if (r.model_digest != expect_model.at(sc)) {
      r.failures.push_back("toggling observers changed the simulated outputs");
    }
    if (kind == RepKind::kPlain) {
      const auto [want, first] = expect_counts.try_emplace(sc, r.counts);
      if (!first && !(r.counts == want->second)) {
        r.failures.push_back("work counts differ between runs of one seed");
      }
    }
    for (const std::string& f : r.failures) {
      std::cerr << "check failed (" << rep_kind_name(kind) << " run "
                << reps.size() << "): " << f << "\n";
    }
    if (!r.failures.empty()) {
      ++failed;
    }
    reps.push_back(std::move(r));
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = layer_metrics(args.workload, reps, spans);
  } else {
    metrics = {{"sim_us_per_ref_s",
                mean_of_seed_medians(reps,
                                     [](const RepResult& r) {
                                       return r.sim_us_per_ref_s();
                                     }),
                "us/s"},
               {"setup_s",
                mean_of_seed_medians(
                    reps, [](const RepResult& r) { return r.setup_s; }),
                "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  }

  if (!args.spans_out.empty() && args.trace) {
    std::ofstream out(args.spans_out);
    out << "{\"workload\": \"" << wname << "\", \"seed\": " << args.seed
        << ", \"spans\": ";
    spans.write_json(out);
    out << "}\n";
  }
  std::cerr << wname << " seed " << args.seed << ": " << reps.size()
            << " runs, " << failed << " failed, "
            << std::setprecision(4) << seconds_since(t0) << " s; host speed "
            << "factor "
            << mean_of_seed_medians(reps, [](const RepResult& r) {
                 return r.host_factor;
               })
            << ", wall-clock sim_us_per_s "
            << mean_of_seed_medians(reps, [](const RepResult& r) {
                 return r.sim_us_per_s();
               })
            << "\n";
  if (seeds.size() > 1) {
    std::cerr << "  sim_us_per_ref_s by scenario seed:";
    for (const std::uint64_t sc : seeds) {
      std::vector<double> rates;
      for (const RepResult& r : reps) {
        if (r.scenario_seed == sc) {
          rates.push_back(r.sim_us_per_ref_s());
        }
      }
      std::cerr << " " << sc << " " << median(rates);
    }
    std::cerr << "\n";
  }
  for (const Metric& m : metrics) {
    std::cerr << "  " << std::left << std::setw(30) << m.name << " "
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
  std::cout << "provenance: {\"commit\": \"" << args.commit
            << "\", \"source_sha\": \"" << args.source_sha
            << "\", \"compiler\": \"" << __VERSION__
            << "\", \"build_type\": \"" << SIMBENCH_BUILD_TYPE
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"workload\": \"" << wname << "\", \"seed\": " << args.seed
            << ", \"reference\": \""
            << (recorded ? "recorded" : "first run") << "\"}\n";
  print_result(failed == 0, reps.size(), failed, metrics);
  return 0;
}

#include "scenario.hpp"

#include <algorithm>
#include <iomanip>

#include "workload/cpu_workloads.hpp"

namespace simbench {

namespace qos = fgqos::qos;
namespace wl = fgqos::wl;
namespace axi = fgqos::axi;

namespace {

constexpr std::size_t kExp1Aggressors = 4;
constexpr double kExp1BudgetBps = 400e6;
constexpr std::size_t kServingPort = 3;
constexpr sim::TimePs kServingSloPs = 3 * sim::kPsPerUs;
constexpr sim::TimePs kControlPeriodPs = 100 * sim::kPsPerUs;

void add_core(Scenario& s, SpanRecorder* spans, const std::string& name,
              std::unique_ptr<fgqos::cpu::Kernel> kernel,
              std::uint64_t stream) {
  SpanScope span(spans, "workload.add_core");
  fgqos::cpu::CoreConfig cc;
  cc.name = name;
  cc.max_iterations = 0;  // unbounded: constant work per simulated span
  cc.rng_seed = mix_seed(s.options.seed, stream);
  s.components.push_back({&s.chip->add_core(cc, std::move(kernel)),
                          Layer::kCpu});
}

void add_generator(Scenario& s, SpanRecorder* spans, std::size_t port,
                   const std::string& name, wl::Pattern pattern,
                   std::uint64_t stream) {
  SpanScope span(spans, "workload.add_traffic_gen");
  wl::TrafficGenConfig tg;
  tg.name = name;
  tg.pattern = pattern;
  tg.base = 0x8000'0000 + (static_cast<axi::Addr>(stream) << 26);
  tg.seed = mix_seed(s.options.seed, 100 + stream);
  s.generators.push_back(&s.chip->add_traffic_gen(port, tg));
  s.components.push_back({s.generators.back(), Layer::kWorkload});
}

void build_exp1(Scenario& s, SpanRecorder* spans, bool regulated) {
  add_core(s, spans, "critical",
           wl::make_pointer_chase(wl::PointerChaseConfig{}), 0);
  for (std::size_t i = 0; i < kExp1Aggressors; ++i) {
    add_generator(s, spans, i, "agg" + std::to_string(i),
                  wl::Pattern::kSeqRead, i);
  }
  if (regulated) {
    SpanScope span(spans, "qos.program_regulators");
    for (std::size_t i = 0; i < kExp1Aggressors; ++i) {
      qos::Regulator& reg = *s.chip->qos_block(1 + i).regulator;
      reg.set_window(sim::kPsPerUs);
      reg.set_rate(kExp1BudgetBps);
      reg.set_enabled(true);
    }
  }
}

void build_cpu_solo(Scenario& s, SpanRecorder* spans) {
  add_core(s, spans, "chase", wl::make_pointer_chase(wl::PointerChaseConfig{}),
           0);
  wl::StreamConfig sc;
  sc.footprint_bytes = 512 << 10;  // fits the modelled 1 MiB L2
  sc.lines_per_iteration = sc.footprint_bytes / sc.line_bytes;
  add_core(s, spans, "stream", wl::make_stream(sc), 1);
}

void build_serving(Scenario& s, SpanRecorder* spans) {
  soc::Soc& chip = *s.chip;
  wl::ServingTenantSpec t;
  t.name = "lc";
  t.port = kServingPort;
  t.arrival = wl::ArrivalKind::kPoisson;
  t.rate_qps = 200e3;
  t.zipf_s = 0.99;
  t.key_count = 65536;
  t.value_bytes = 4096;
  t.read_fraction = 0.95;
  t.slo_ps = kServingSloPs;
  // Two in flight keep the tenant's own bursts out of the AXI latency the
  // controller reacts to, so its decisions follow the bulk load.
  t.max_outstanding = 2;
  {
    SpanScope span(spans, "workload.add_serving");
    wl::ServingSpec spec;
    spec.seed = s.options.seed;
    spec.duration_ps = span_ps(s.workload);
    spec.tenants.push_back(t);
    chip.add_serving(spec, mix_seed(s.options.seed, 200));
    s.components.push_back({&chip.serving_tenant(0), Layer::kWorkload});
  }
  // One bulk master per remaining HP port (a generator owns its port's
  // completion handler): streaming writers beside a random reader.
  for (std::size_t i = 0; i < kServingPort; ++i) {
    add_generator(s, spans, i, "bulk" + std::to_string(i),
                  i % 2 == 0 ? wl::Pattern::kSeqWrite : wl::Pattern::kRandomRead,
                  i);
  }
  {
    SpanScope span(spans, "qos.add_latency_monitor");
    qos::LatencyMonitorConfig lmc;
    lmc.window_ps = kControlPeriodPs;
    s.latency_monitor = std::make_unique<qos::LatencyMonitor>(chip.sim(), lmc);
    chip.accel_port(kServingPort).add_observer(*s.latency_monitor);
  }
  {
    SpanScope span(spans, "qos.add_adaptive_controller");
    std::vector<qos::Regulator*> regs;
    for (std::size_t i = 0; i < kServingPort; ++i) {
      regs.push_back(chip.qos_block(1 + i).regulator.get());
    }
    qos::AdaptiveControllerConfig ac;
    ac.latency_target_ps = 2 * sim::kPsPerUs;
    ac.period_ps = kControlPeriodPs;
    ac.increase_bps = 200e6;
    s.controller = std::make_unique<qos::AdaptiveQosController>(
        chip.sim(), ac, *s.latency_monitor, regs);
  }
}

/// Attribution (plus the SLA watchdog on serving), time series and the
/// decision journal.
void enable_observers(Scenario& s, SpanRecorder* spans) {
  soc::Soc& chip = *s.chip;
  {
    SpanScope span(spans, "telemetry.enable_attribution");
    chip.enable_attribution(kControlPeriodPs);
  }
  if (s.controller) {
    SpanScope span(spans, "qos.add_sla_watchdog");
    s.watchdog = std::make_unique<qos::SlaWatchdog>(*chip.attribution(),
                                                    chip.telemetry().metrics());
    qos::SlaSpec sla;
    sla.max_p99_latency_ps = kServingSloPs;
    s.watchdog->watch(chip.accel_port(kServingPort), sla);
  }
  {
    SpanScope span(spans, "telemetry.enable_journal");
    fgqos::telemetry::DecisionJournal& journal = chip.enable_journal();
    if (s.controller) {
      s.controller->set_journal(&journal);
      s.watchdog->set_journal(&journal);
    }
  }
  {
    SpanScope span(spans, "telemetry.enable_timeseries");
    chip.enable_timeseries(fgqos::telemetry::TimeSeriesConfig{});
  }
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kDram: return "dram";
    case Layer::kAxi: return "axi";
    case Layer::kCpu: return "cpu";
    case Layer::kWorkload: return "workload";
    case Layer::kQos: return "qos";
    case Layer::kTelemetry: return "telemetry";
    case Layer::kSim: return "sim";
  }
  return "?";
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kExp1Unreg: return "exp1_unreg";
    case Workload::kExp1Hw: return "exp1_hw";
    case Workload::kCpuSolo: return "cpu_solo";
    case Workload::kServingDefended: return "serving_defended";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) {
      return w;
    }
  }
  return std::nullopt;
}

sim::TimePs span_ps(Workload w) {
  switch (w) {
    case Workload::kExp1Unreg: return 500 * sim::kPsPerUs;
    case Workload::kExp1Hw: return 2 * sim::kPsPerMs;
    case Workload::kCpuSolo: return 1 * sim::kPsPerMs;
    // 80 control periods: long enough that the controller's step sequence,
    // and with it the DRAM load, varies little between seeds.
    case Workload::kServingDefended: return 8 * sim::kPsPerMs;
  }
  return 0;
}

bool default_observers(Workload w) { return w == Workload::kServingDefended; }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int SpanRecorder::open(std::string name) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), run_id_,
                        open_.empty() ? -1 : open_.back(), now_s(), 0.0});
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  open_.erase(std::find(open_.begin(), open_.end(), index));
}

double SpanRecorder::total_s(std::uint64_t run_id,
                             std::string_view prefix) const {
  double total = 0;
  for (const Span& sp : spans_) {
    if (sp.run_id == run_id && sp.name.starts_with(prefix)) {
      total += sp.end_s - sp.start_s;
    }
  }
  return total;
}

void SpanRecorder::write_json(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
       << sp.name << "\",\"run_id\":" << sp.run_id
       << ",\"parent\":" << sp.parent << std::setprecision(9)
       << ",\"start_s\":" << sp.start_s << ",\"end_s\":" << sp.end_s << "}";
  }
  os << "\n]";
}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Scenario build(Workload w, const ScenarioOptions& opts, SpanRecorder* spans) {
  SpanScope setup(spans, "setup");
  Scenario s;
  s.workload = w;
  s.options = opts;
  soc::SocConfig cfg;  // the default zcu102-class platform
  cfg.profile = opts.profile;
  {
    SpanScope span(spans, "soc.construct");
    s.chip = std::make_unique<soc::Soc>(cfg);
  }
  s.components.push_back({&s.chip->xbar(), Layer::kAxi});
  for (std::size_t ch = 0; ch < s.chip->dram_channel_count(); ++ch) {
    s.components.push_back({&s.chip->dram(ch), Layer::kDram});
  }
  s.components.push_back({&s.chip->cluster(), Layer::kCpu});
  switch (w) {
    case Workload::kExp1Unreg: build_exp1(s, spans, false); break;
    case Workload::kExp1Hw: build_exp1(s, spans, true); break;
    case Workload::kCpuSolo: build_cpu_solo(s, spans); break;
    case Workload::kServingDefended: build_serving(s, spans); break;
  }
  if (opts.observers) {
    enable_observers(s, spans);
  }
  if (s.controller) {
    SpanScope span(spans, "qos.start_controller");
    s.controller->start();
  }
  return s;
}

void run(Scenario& s, SpanRecorder* spans) {
  SpanScope span(spans, "sim.run_until");
  s.chip->run_until(span_ps(s.workload));
}

std::vector<std::string> check_invariants(Scenario& s) {
  std::vector<std::string> failures;
  soc::Soc& chip = *s.chip;
  if (chip.now() != span_ps(s.workload)) {
    failures.push_back("simulated time stopped short of the span");
  }
  fgqos::cpu::CpuCluster& cluster = chip.cluster();
  for (std::size_t c = 0; c < cluster.core_count(); ++c) {
    if (cluster.core(c).stats().steps_done == 0) {
      failures.push_back("core " + cluster.core(c).config().name +
                         " made no progress");
    }
  }
  for (const wl::TrafficGen* g : s.generators) {
    if (g->stats().completed_bytes == 0) {
      failures.push_back("generator " + g->config().name +
                         " completed no transaction");
    }
  }
  for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
    const wl::ServingTenant& t = chip.serving_tenant(i);
    const wl::ServingTenantStats& st = t.stats();
    if (st.generated !=
        st.completed + st.dropped + t.in_flight() + t.queue_depth()) {
      failures.push_back("serving tenant " + t.spec().name +
                         " broke generated == completed + dropped + "
                         "in_flight + queue_depth");
    }
    if (st.completed == 0) {
      failures.push_back("serving tenant " + t.spec().name +
                         " completed no request");
    }
  }
  if (const auto* attr = chip.attribution()) {
    if (attr->residual_ps() != 0) {
      failures.push_back("attribution residual is " +
                         std::to_string(attr->residual_ps()) + " ps");
    }
  }
  return failures;
}

}  // namespace simbench

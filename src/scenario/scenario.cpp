#include "scenario/scenario.hpp"

#include <algorithm>
#include <filesystem>

#include "qos/envelope.hpp"
#include "util/config_error.hpp"

namespace fgqos::scenario {

namespace {

/// Denies every line: strict PREM mutual exclusion for a critical task
/// that is memory-active for the whole run. It never reopens, so it never
/// signals.
class BlockAllGate final : public axi::TxnGate {
 public:
  [[nodiscard]] bool allow(const axi::LineRequest&,
                           sim::TimePs) const override {
    return false;
  }
  void on_grant(const axi::LineRequest&, sim::TimePs) override {}
};

/// The port the kAdaptive monitor and the SLA watchdog watch: the CPU port
/// when a critical task runs, else the first serving tenant's. Throws
/// ConfigError naming \p watcher when there is neither.
axi::MasterPort& protected_port(soc::Soc& chip, const Spec& spec,
                                const std::string& watcher) {
  if (spec.critical) {
    return chip.cpu_port();
  }
  config_check(spec.serving != nullptr && !spec.serving->tenants.empty(),
               "scenario: " + watcher +
                   " needs a protected port (a critical task or a serving "
                   "tenant)");
  return chip.accel_port(spec.serving->tenants.front().port);
}

/// The HP ports no serving tenant owns: aggressor i runs on the (i mod k)-th
/// of these k ports.
std::vector<std::size_t> aggressor_ports(const Spec& spec) {
  std::vector<std::size_t> ports = first_ports(spec.platform.accel_ports);
  if (spec.serving != nullptr) {
    for (const wl::ServingTenantSpec& t : spec.serving->tenants) {
      ports.erase(std::remove(ports.begin(), ports.end(), t.port), ports.end());
    }
  }
  config_check(spec.aggressors.empty() || !ports.empty(),
               "scenario: every HP port serves a tenant; none is left for "
               "the aggressors");
  return ports;
}

/// Creates the scheme's own objects (before any aggressor exists).
void add_scheme(Scenario& s, const Spec& spec) {
  soc::Soc& chip = *s.chip;
  switch (spec.scheme) {
    case Scheme::kNone:
    case Scheme::kHw:
    case Scheme::kAdaptive:
      return;
    case Scheme::kSw:
      s.memguard =
          std::make_unique<qos::SoftMemguard>(chip.sim(), spec.memguard);
      return;
    case Scheme::kPremStrict:
      s.strict_gate = std::make_unique<BlockAllGate>();
      return;
    case Scheme::kPrem:
    case Scheme::kPremCmri: {
      // Frame = {CPU exclusive, FPGA shared}.
      qos::PremConfig pc;
      pc.schedule = {chip.cpu_port().id(), qos::kAllMasters};
      pc.slot_ps = 10 * sim::kPsPerUs;
      s.prem = std::make_unique<qos::PremArbiter>(chip.sim(), pc);
      if (spec.scheme == Scheme::kPremCmri) {
        qos::CmriConfig cc;
        cc.injection_budget_bytes = spec.cmri_injection_bytes;
        s.cmri = std::make_unique<qos::CmriInjector>(*s.prem, cc);
      }
      return;
    }
  }
}

/// Programs the scheme onto the ports (after the aggressors exist).
void program_scheme(Scenario& s, const Spec& spec) {
  soc::Soc& chip = *s.chip;
  for (const std::size_t port : spec.regulated_ports) {
    if (spec.scheme == Scheme::kHw) {
      qos::Regulator& reg = *chip.qos_block(1 + port).regulator;
      reg.set_window(spec.window_ps);
      if (spec.envelope == nullptr) {
        reg.set_rate(spec.budget_bps);
        reg.set_enabled(true);
      }  // else the rate goes through admission once observers are wired
    } else if (spec.scheme == Scheme::kSw) {
      axi::MasterPort& mp = chip.accel_port(port);
      s.memguard->set_rate(mp.id(), spec.budget_bps);
      mp.add_gate(*s.memguard);
    }
  }
  axi::TxnGate* gate = s.cmri != nullptr   ? s.cmri.get()
                       : s.prem != nullptr ? s.prem.get()
                                           : s.strict_gate.get();
  for (std::size_t i = 0; gate != nullptr && i < chip.accel_port_count();
       ++i) {
    chip.accel_port(i).add_gate(*gate);
  }
  if (spec.scheme == Scheme::kAdaptive) {
    axi::MasterPort& watched =
        protected_port(chip, spec, "adaptive regulation");
    qos::LatencyMonitorConfig lc;
    lc.window_ps = spec.adaptive.period_ps;
    s.monitor = std::make_unique<qos::LatencyMonitor>(chip.sim(), lc);
    watched.add_observer(*s.monitor);
    std::vector<qos::Regulator*> regs;
    for (const std::size_t port : spec.regulated_ports) {
      regs.push_back(chip.qos_block(1 + port).regulator.get());
    }
    s.adaptive = std::make_unique<qos::AdaptiveQosController>(
        chip.sim(), spec.adaptive, *s.monitor, std::move(regs));
    s.adaptive->start();
  }
  if (spec.scheme == Scheme::kHw && spec.envelope != nullptr) {
    qos::QosManagerConfig mc;
    mc.capacity_bps = spec.envelope->capacity_bps;
    mc.max_reservable_frac = spec.envelope->max_reservable_frac;
    s.manager = std::make_unique<qos::QosManager>(chip.sim(), mc);
    s.manager->set_envelope(spec.envelope);
    s.manager->set_metrics(&chip.telemetry().metrics());
  }
}

/// Wires every observer, after everything that can trace or journal exists.
void wire_observers(Scenario& s, const Spec& spec, const Observers& obs) {
  soc::Soc& chip = *s.chip;
  if (!obs.trace_path.empty()) {
    chip.open_trace(obs.trace_path, obs.trace_filter);
    if (s.memguard != nullptr) {
      s.memguard->set_trace(chip.telemetry().trace());
    }
  } else if (obs.lifecycle_metrics) {
    chip.enable_lifecycle_metrics();
  }
  if (obs.blame_window_ps > 0) {
    telemetry::AttributionEngine& engine =
        chip.enable_attribution(obs.blame_window_ps);
    if (sla_active(obs.sla)) {
      axi::MasterPort& watched = protected_port(chip, spec, "an SLA watchdog");
      s.sla = std::make_unique<qos::SlaWatchdog>(engine,
                                                 chip.telemetry().metrics());
      s.sla->watch(watched, obs.sla);
      if (chip.telemetry().tracing()) {
        s.sla->set_trace(chip.telemetry().trace());
      }
      if (fault::FaultInjector* inj = chip.faults()) {
        // Violation reports name whichever fault was live at the time.
        s.sla->set_fault_probe(
            [inj](sim::TimePs t) { return inj->active_faults(t); });
      }
      if (spec.envelope != nullptr) {
        s.sla->set_envelope(spec.envelope, s.manager.get());
      }
    }
  }
  if (obs.timeseries) {
    // Last of the samplers, so every standard series (attr.* included)
    // is there to be probed.
    chip.enable_timeseries(*obs.timeseries);
  }
  if (obs.journal != Journal::kOff) {
    telemetry::DecisionJournal* j = chip.journal();
    if (j == nullptr) {
      j = &chip.enable_journal();
    }
    if (s.memguard != nullptr) {
      s.memguard->set_journal(j);
    }
    if (s.manager != nullptr) {
      s.manager->set_journal(j);
    }
    if (s.adaptive != nullptr) {
      s.adaptive->set_journal(j);
    }
    if (s.sla != nullptr) {
      s.sla->set_journal(j);
    }
  }
}

}  // namespace

bool sla_active(const qos::SlaSpec& s) {
  return s.min_bandwidth_mbps > 0 || s.max_p99_latency_ps > 0 ||
         s.max_interference_fraction > 0;
}

void make_bundle_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  config_check(!ec, "cannot create bundle directory '" + dir + "': " +
                        ec.message());
}

std::vector<wl::TrafficGenConfig> standard_aggressors(
    std::size_t count, wl::Pattern pattern, std::uint64_t base_seed,
    std::uint64_t stride_bytes, std::uint64_t footprint_bytes,
    std::size_t thrash) {
  std::vector<wl::TrafficGenConfig> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    wl::TrafficGenConfig& tg = out[i];
    tg.name = "agg" + std::to_string(i);
    tg.pattern = pattern;
    tg.base = 0x8000'0000 + static_cast<axi::Addr>(i) * stride_bytes;
    tg.footprint_bytes = footprint_bytes;
    tg.seed = base_seed + i;
    if (i < thrash) {
      // Single-line bursts open a fresh row on every access; the deep
      // outstanding window keeps the target bank's miss pipeline full.
      tg.pattern = wl::Pattern::kRandomRead;
      tg.burst_bytes = 64;
      tg.max_outstanding = 48;
    }
  }
  return out;
}

std::vector<std::size_t> first_ports(std::size_t n) {
  std::vector<std::size_t> ports(n);
  for (std::size_t i = 0; i < n; ++i) {
    ports[i] = i;
  }
  return ports;
}

wl::ServingSpec kv_serving(double load_qps, sim::TimePs duration_ps) {
  wl::ServingSpec spec;
  spec.seed = 7;
  spec.duration_ps = duration_ps;
  wl::ServingTenantSpec t;
  t.name = "lc";
  t.port = 3;
  t.rate_qps = load_qps;
  t.zipf_s = 0.99;
  t.key_count = 65536;
  t.value_bytes = 4096;
  t.read_fraction = 0.95;
  t.slo_ps = kKvSloPs;
  t.max_outstanding = 8;
  t.queue_capacity = 4096;
  spec.tenants.push_back(t);
  return spec;
}

std::vector<wl::TrafficGenConfig> bulk_masters(std::size_t ports) {
  std::vector<wl::TrafficGenConfig> gens =
      standard_aggressors(2 * ports, wl::Pattern::kSeqWrite, 60);
  for (std::size_t i = 1; i < gens.size(); i += 2) {
    gens[i].pattern = wl::Pattern::kRandomRead;
  }
  return gens;
}

double Scenario::aggressor_bps() const {
  std::vector<axi::MasterPort*> seen;
  double total = 0;
  for (wl::TrafficGen* g : aggressors) {
    axi::MasterPort* port = &g->port();
    if (std::find(seen.begin(), seen.end(), port) != seen.end()) {
      continue;
    }
    seen.push_back(port);
    total += sim::bytes_per_second(port->stats().bytes_granted.value(),
                                   chip->now());
  }
  return total;
}

void Scenario::finish() {
  if (memguard != nullptr) {
    memguard->flush_trace(chip->now());
  }
  chip->finish_telemetry();
}

void Scenario::write(const std::string& dir,
                     const telemetry::RunManifest& manifest,
                     bool drop_host_timing) {
  const std::string base = dir + "/";
  telemetry::MetricsRegistry& reg = chip->collect_metrics();
  if (drop_host_timing) {
    reg.erase_prefix("sim.wall");
    reg.erase_prefix("profile.");
  }
  reg.save_json(base + "metrics.json", chip->now(), &manifest);
  reg.save_csv(base + "metrics.csv", &manifest);
  if (telemetry::AttributionEngine* attr = chip->attribution()) {
    attr->save_csv(base + "blame.csv");
    attr->save_json(base + "blame.json");
  }
  if (telemetry::TimeSeriesRecorder* ts = chip->timeseries()) {
    ts->save_csv(base + "timeseries.csv", &manifest);
    ts->save_json(base + "timeseries.json", &manifest);
  }
  if (telemetry::DecisionJournal* j = chip->journal()) {
    j->save_jsonl(base + "journal.jsonl", &manifest);
  }
  if (const telemetry::HostProfiler* profiler = chip->profiler()) {
    const telemetry::ProfileSnapshot prof = profiler->snapshot();
    prof.save_json(base + "profile.json", &manifest);
    prof.save_folded(base + "profile.folded");
  }
}

Scenario build(const Spec& spec, const Observers& obs, std::uint64_t seed) {
  config_check(obs.blame_window_ps > 0 || !sla_active(obs.sla),
               "scenario: an SLA watchdog needs a blame window");
  const std::vector<std::size_t> ports = aggressor_ports(spec);
  Scenario s;
  soc::SocConfig cfg = spec.platform;
  cfg.profile = obs.profile;
  s.chip = std::make_unique<soc::Soc>(cfg);
  soc::Soc& chip = *s.chip;
  if (spec.critical) {
    s.critical =
        &chip.add_core(spec.critical->core, spec.critical->kernel());
  }
  add_scheme(s, spec);
  if (obs.journal == Journal::kSetupAndRun) {
    chip.enable_journal();
  }
  for (std::size_t i = 0; i < spec.aggressors.size(); ++i) {
    s.aggressors.push_back(&chip.add_traffic_gen(ports[i % ports.size()],
                                                 spec.aggressors[i]));
  }
  program_scheme(s, spec);
  if (spec.bank_budgets != nullptr) {
    chip.apply_bank_budgets(*spec.bank_budgets);
  }
  if (spec.serving != nullptr) {
    chip.add_serving(*spec.serving, seed);
  }
  if (spec.faults != nullptr) {
    fault::FaultInjector& inj = chip.arm_faults(*spec.faults, seed);
    if (s.memguard != nullptr) {
      inj.wire_memguard(*s.memguard);
    }
  }
  if (spec.watchdog_fallback_bps > 0) {
    for (const std::size_t port : spec.regulated_ports) {
      qos::RegulatorWatchdogConfig wc;
      wc.name = "wd" + std::to_string(port);
      wc.check_period_ps = 4 * spec.window_ps;
      wc.fallback_budget_bytes =
          qos::budget_for_rate(spec.watchdog_fallback_bps, spec.window_ps);
      chip.add_regulator_watchdog(1 + port, wc);
    }
  }
  wire_observers(s, spec, obs);
  if (s.manager != nullptr) {
    for (const std::size_t port : spec.regulated_ports) {
      axi::MasterPort& mp = chip.accel_port(port);
      s.manager->add_port(mp.name(), mp.id(), chip.regfile(1 + port));
      s.admitted.push_back(s.manager->reserve(mp.id(), spec.budget_bps));
    }
  }
  return s;
}

}  // namespace fgqos::scenario

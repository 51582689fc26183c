#include "soc/soc.hpp"

#include <algorithm>

#include "util/config_error.hpp"

namespace fgqos::soc {

namespace {
/// How often run_until_serving_drained() checks the tenants.
constexpr sim::TimePs kServingDrainPollPs = 100 * sim::kPsPerUs;
}  // namespace

Soc::Soc(SocConfig cfg)
    : cfg_(std::move(cfg)),
      cpu_clk_(sim::ClockDomain::from_mhz("cpu", cfg_.cpu_mhz)),
      fabric_clk_(sim::ClockDomain::from_mhz("fabric", cfg_.fabric_mhz)),
      xbar_clk_(sim::ClockDomain::from_mhz("xbar", cfg_.xbar_mhz)),
      dram_clk_(sim::ClockDomain::from_mhz("dram", cfg_.dram.timing.clock_mhz)) {
  cfg_.validate();
  if (cfg_.profile) {
    // Attach before any component is built so construction-time tag
    // registrations all land in the profiler's tag table.
    telemetry_.enable_profiler(sim_);
  }
  xbar_ = std::make_unique<axi::Interconnect>(sim_, xbar_clk_, cfg_.xbar);

  // Master 0: CPU cluster port.
  axi::MasterPortConfig cpu_port_cfg = cfg_.cpu_port;
  xbar_->add_master(cpu_port_cfg);
  // Masters 1..N: accelerator HP ports.
  for (std::size_t i = 0; i < cfg_.accel_ports; ++i) {
    axi::MasterPortConfig pc = cfg_.accel_port;
    pc.name = cfg_.accel_port.name + std::to_string(i);
    xbar_->add_master(pc);
  }

  for (std::size_t ch = 0; ch < cfg_.dram_channels; ++ch) {
    drams_.push_back(std::make_unique<dram::Controller>(sim_, dram_clk_,
                                                        cfg_.dram, *xbar_));
  }
  if (cfg_.dram_channels == 1) {
    xbar_->set_slave(*drams_[0]);
  } else {
    std::vector<axi::SlaveIf*> channels;
    channels.reserve(drams_.size());
    for (auto& d : drams_) {
      channels.push_back(d.get());
    }
    channel_router_ = std::make_unique<axi::ChannelRouter>(
        std::move(channels), cfg_.channel_stride_bytes);
    xbar_->set_slave(*channel_router_);
  }

  cluster_ = std::make_unique<cpu::CpuCluster>(sim_, cpu_clk_, cfg_.cluster,
                                               xbar_->master(0));

  if (cfg_.qos_blocks) {
    for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
      QosBlock block;
      qos::RegulatorConfig rc = cfg_.default_regulator;
      rc.name = xbar_->master(m).name() + ".reg";
      block.regulator = std::make_unique<qos::Regulator>(sim_, rc);
      qos::MonitorConfig mc = cfg_.default_monitor;
      mc.name = xbar_->master(m).name() + ".mon";
      block.monitor = std::make_unique<qos::BandwidthMonitor>(sim_, mc);
      block.regfile = std::make_unique<qos::QosRegFile>(block.regulator.get(),
                                                        block.monitor.get());
      xbar_->master(m).add_gate(*block.regulator);
      xbar_->master(m).add_observer(*block.monitor);
      qos_blocks_.push_back(std::move(block));
    }
  }
}

QosBlock& Soc::qos_block(std::size_t master_index) {
  config_check(cfg_.qos_blocks, "Soc: QoS blocks disabled by configuration");
  config_check(master_index < qos_blocks_.size(),
               "Soc: master index out of range");
  return qos_blocks_[master_index];
}

cpu::CpuCore& Soc::add_core(cpu::CoreConfig core_cfg,
                            std::unique_ptr<cpu::Kernel> kernel) {
  return cluster_->add_core(std::move(core_cfg), std::move(kernel));
}

wl::TrafficGen& Soc::add_traffic_gen(std::size_t accel_index,
                                     wl::TrafficGenConfig tg_cfg) {
  config_check(accel_index < cfg_.accel_ports,
               "Soc: accel port index out of range");
  for (const auto& tenant : serving_) {
    config_check(tenant->spec().port != accel_index,
                 "Soc: HP port " + std::to_string(accel_index) +
                     " already serves tenant '" + tenant->spec().name + "'");
  }
  traffic_gens_.push_back(std::make_unique<wl::TrafficGen>(
      sim_, fabric_clk_, std::move(tg_cfg), accel_port(accel_index)));
  if (telemetry_.tracing()) {
    traffic_gens_.back()->set_trace(telemetry_.trace());
  }
  return *traffic_gens_.back();
}

wl::ServingTenant& Soc::add_serving_tenant(wl::ServingTenantSpec spec,
                                           sim::TimePs duration_ps,
                                           std::uint64_t seed) {
  config_check(spec.port < cfg_.accel_ports,
               "Soc: serving tenant '" + spec.name +
                   "' names HP port " + std::to_string(spec.port) +
                   " but the platform has " +
                   std::to_string(cfg_.accel_ports));
  // The tenant's port.* metrics, protected-port monitor and SLA watchdog
  // all watch its port; anything else on that port would blur them, so
  // claim it exclusively.
  axi::MasterPort& port = accel_port(spec.port);
  for (const auto& other : serving_) {
    config_check(other->spec().port != spec.port,
                 "Soc: HP port " + std::to_string(spec.port) +
                     " already serves tenant '" + other->spec().name + "'");
  }
  for (const auto& tg : traffic_gens_) {
    config_check(&tg->port() != &port,
                 "Soc: HP port " + std::to_string(spec.port) +
                     " already drives traffic generator '" +
                     tg->config().name + "'");
  }
  serving_.push_back(std::make_unique<wl::ServingTenant>(
      sim_, fabric_clk_, std::move(spec), duration_ps, seed, port));
  return *serving_.back();
}

void Soc::add_serving(const wl::ServingSpec& spec, std::uint64_t run_seed) {
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    add_serving_tenant(spec.tenants[i], spec.duration_ps,
                       wl::serving_tenant_seed(spec.seed, run_seed, i));
  }
}

void Soc::open_trace(const std::string& path, const std::string& filter) {
  telemetry_.open_trace(path, filter);
  enable_lifecycle_metrics();
  telemetry::TraceWriter* tw = telemetry_.trace();
  for (std::size_t ch = 0; ch < drams_.size(); ++ch) {
    drams_[ch]->set_trace(tw, "ch" + std::to_string(ch));
  }
  for (auto& block : qos_blocks_) {
    block.regulator->set_trace(tw);
    block.monitor->set_trace(tw);
  }
  for (auto& tg : traffic_gens_) {
    tg->set_trace(tw);
  }
  if (injector_ != nullptr) {
    injector_->set_trace(tw);
  }
  for (auto& wd : watchdogs_) {
    wd->set_trace(tw);
  }
  telemetry_.start_kernel_sampling(sim_);
}

void Soc::enable_lifecycle_metrics() {
  for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
    telemetry_.lifecycle(xbar_->master(m));
  }
}

telemetry::AttributionEngine& Soc::enable_attribution(sim::TimePs window_ps) {
  telemetry::AttributionEngine& engine =
      telemetry_.enable_attribution(window_ps);
  for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
    engine.register_master(static_cast<axi::MasterId>(m),
                           xbar_->master(m).name());
  }
  if (cfg_.bank_telemetry) {
    engine.enable_bank_dimension(
        static_cast<std::uint32_t>(cfg_.dram.timing.banks));
  }
  xbar_->set_attribution(&engine);
  for (auto& d : drams_) {
    d->set_attribution(&engine);
  }
  if (telemetry_.tracing()) {
    engine.set_trace(telemetry_.trace());
  }
  return engine;
}

telemetry::TimeSeriesRecorder& Soc::enable_timeseries(
    telemetry::TimeSeriesConfig ts_cfg) {
  telemetry::TimeSeriesRecorder& rec =
      telemetry_.enable_timeseries(sim_, std::move(ts_cfg));
  using Kind = telemetry::TimeSeriesRecorder::Kind;
  // Registration order is export order; keep it stable (dram, ports, qos,
  // generators, cores, attribution) so exports are byte-comparable across
  // runs. Probes read live component state — no metrics-registry detour,
  // which is only refreshed by collect_metrics() at the end of a run.
  rec.add_series("dram.payload_bytes", Kind::kDelta, [this](sim::TimePs) {
    std::uint64_t bytes = 0;
    for (const auto& d : drams_) {
      bytes += d->stats().payload_bytes.value();
    }
    return static_cast<double>(bytes);
  });
  if (drams_.size() > 1) {
    for (std::size_t ch = 0; ch < drams_.size(); ++ch) {
      dram::Controller* d = drams_[ch].get();
      rec.add_series("dram.ch" + std::to_string(ch) + ".payload_bytes",
                     Kind::kDelta, [d](sim::TimePs) {
                       return static_cast<double>(
                           d->stats().payload_bytes.value());
                     });
    }
  }
  if (cfg_.bank_telemetry) {
    // Per-(master, bank) serviced bytes plus the per-master DRAM aggregate
    // sampled at the same probe instant, so the per-window conservation
    // property (sum over banks == port aggregate) is checkable per row.
    const auto banks = static_cast<std::uint32_t>(cfg_.dram.timing.banks);
    for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
      const auto mid = static_cast<axi::MasterId>(m);
      const std::string pname = xbar_->master(m).name();
      rec.add_series("dram.port." + pname + ".bytes", Kind::kDelta,
                     [this, mid](sim::TimePs) {
                       std::uint64_t bytes = 0;
                       for (const auto& d : drams_) {
                         bytes += d->master_bytes(mid);
                       }
                       return static_cast<double>(bytes);
                     });
      for (std::uint32_t b = 0; b < banks; ++b) {
        rec.add_series("dram.bank." + std::to_string(b) + ".port." + pname +
                           ".bytes",
                       Kind::kDelta, [this, mid, b](sim::TimePs) {
                         std::uint64_t bytes = 0;
                         for (const auto& d : drams_) {
                           bytes += d->bank_bytes(mid, b);
                         }
                         return static_cast<double>(bytes);
                       });
      }
    }
  }
  for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
    axi::MasterPort* p = &xbar_->master(m);
    rec.add_series("port." + p->name() + ".bytes", Kind::kDelta,
                   [p](sim::TimePs) {
                     return static_cast<double>(
                         p->stats().bytes_granted.value());
                   });
    rec.add_series("port." + p->name() + ".read_p99_ps", Kind::kGauge,
                   [p](sim::TimePs) {
                     return static_cast<double>(p->stats().read_latency.p99());
                   });
  }
  for (auto& block : qos_blocks_) {
    qos::Regulator* r = block.regulator.get();
    const std::string rp = "qos." + r->config().name + ".";
    rec.add_series(rp + "tokens", Kind::kGauge, [r](sim::TimePs) {
      return static_cast<double>(r->tokens());
    });
    rec.add_series(rp + "budget_bytes", Kind::kGauge, [r](sim::TimePs) {
      return static_cast<double>(r->config().budget_bytes);
    });
    rec.add_series(rp + "throttled_ps", Kind::kDelta, [r](sim::TimePs) {
      return static_cast<double>(r->stats().throttled_ps);
    });
    qos::BandwidthMonitor* mon = block.monitor.get();
    rec.add_series("qos." + mon->config().name + ".bytes", Kind::kDelta,
                   [mon](sim::TimePs) {
                     return static_cast<double>(mon->total_bytes());
                   });
  }
  for (auto& brp : bank_regs_) {
    if (brp == nullptr) {
      continue;
    }
    qos::Regulator* br = brp.get();
    rec.add_series("qos." + br->config().name + ".throttled_ps", Kind::kDelta,
                   [br](sim::TimePs) {
                     return static_cast<double>(br->stats().throttled_ps);
                   });
  }
  for (auto& tgp : traffic_gens_) {
    wl::TrafficGen* tg = tgp.get();
    rec.add_series("tg." + tg->config().name + ".completed_bytes", Kind::kDelta,
                   [tg](sim::TimePs) {
                     return static_cast<double>(tg->stats().completed_bytes);
                   });
  }
  for (auto& sp : serving_) {
    wl::ServingTenant* t = sp.get();
    const std::string prefix = "serving." + t->spec().name + ".";
    rec.add_series(prefix + "completed", Kind::kDelta, [t](sim::TimePs) {
      return static_cast<double>(t->stats().completed);
    });
    rec.add_series(prefix + "generated", Kind::kDelta, [t](sim::TimePs) {
      return static_cast<double>(t->stats().generated);
    });
    rec.add_series(prefix + "dropped", Kind::kDelta, [t](sim::TimePs) {
      return static_cast<double>(t->stats().dropped);
    });
    rec.add_series(prefix + "queue_depth", Kind::kGauge, [t](sim::TimePs) {
      return static_cast<double>(t->queue_depth());
    });
    rec.add_series(prefix + "p99_ps", Kind::kGauge, [t](sim::TimePs) {
      return static_cast<double>(t->latency().p99());
    });
  }
  for (std::size_t c = 0; c < cluster_->core_count(); ++c) {
    const cpu::CpuCore* core = &cluster_->core(c);
    rec.add_series("core." + core->config().name + ".iterations", Kind::kDelta,
                   [core](sim::TimePs) {
                     return static_cast<double>(core->stats().iterations);
                   });
  }
  if (telemetry::AttributionEngine* attr = telemetry_.attribution()) {
    for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
      const auto victim = static_cast<axi::MasterId>(m);
      rec.add_series("attr." + xbar_->master(m).name() + ".stall_ps",
                     Kind::kDelta, [attr, victim](sim::TimePs) {
                       attr->settle();
                       return static_cast<double>(
                           attr->victim_stall_ps(victim));
                     });
    }
  }
  rec.start();
  return rec;
}

telemetry::DecisionJournal& Soc::enable_journal(std::size_t capacity) {
  telemetry::DecisionJournal& j = telemetry_.enable_journal(capacity);
  for (auto& block : qos_blocks_) {
    block.regulator->set_journal(&j);
  }
  for (auto& br : bank_regs_) {
    if (br != nullptr) {
      br->set_journal(&j);
    }
  }
  if (injector_ != nullptr) {
    injector_->set_journal(&j);
  }
  for (auto& wd : watchdogs_) {
    wd->set_journal(&j);
  }
  return j;
}

void Soc::finish_telemetry() {
  if (telemetry_.tracing()) {
    for (auto& block : qos_blocks_) {
      block.regulator->flush_trace(sim_.now());
    }
  }
  if (telemetry::AttributionEngine* attr = telemetry_.attribution()) {
    attr->finish(sim_.now());
  }
  if (telemetry::TimeSeriesRecorder* ts = telemetry_.timeseries()) {
    ts->finish(sim_.now());
  }
  telemetry_.finish();
}

fault::FaultInjector& Soc::arm_faults(fault::FaultPlan plan,
                                      std::uint64_t run_seed) {
  config_check(injector_ == nullptr, "Soc: faults already armed");
  injector_ = std::make_unique<fault::FaultInjector>(
      sim_, std::move(plan), run_seed, &telemetry_.metrics());
  injector_->wire_interconnect(*xbar_);
  for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
    injector_->wire_port(xbar_->master(m));
  }
  for (std::size_t m = 0; m < qos_blocks_.size(); ++m) {
    injector_->wire_regulator(m, *qos_blocks_[m].regulator);
    injector_->wire_monitor(m, *qos_blocks_[m].monitor);
  }
  for (auto& d : drams_) {
    injector_->wire_dram(*d);
  }
  if (telemetry_.tracing()) {
    injector_->set_trace(telemetry_.trace());
  }
  if (telemetry::DecisionJournal* j = telemetry_.journal()) {
    injector_->set_journal(j);
  }
  return *injector_;
}

qos::RegulatorWatchdog& Soc::add_regulator_watchdog(
    std::size_t master_index, qos::RegulatorWatchdogConfig wd_cfg) {
  QosBlock& block = qos_block(master_index);
  watchdogs_.push_back(std::make_unique<qos::RegulatorWatchdog>(
      sim_, *block.regulator, *block.monitor, std::move(wd_cfg),
      &telemetry_.metrics()));
  if (telemetry_.tracing()) {
    watchdogs_.back()->set_trace(telemetry_.trace());
  }
  if (telemetry::DecisionJournal* j = telemetry_.journal()) {
    watchdogs_.back()->set_journal(j);
  }
  return *watchdogs_.back();
}

qos::Regulator& Soc::add_bank_regulator(std::size_t master_index,
                                        qos::RegulatorConfig brc) {
  config_check(master_index < xbar_->master_count(),
               "Soc: master index out of range");
  // With channel interleaving a line's bank depends on which channel it
  // routes to, so a single port-side decode would charge the wrong bucket.
  config_check(drams_.size() == 1,
               "Soc: per-bank regulation requires a single DRAM channel");
  if (bank_regs_.size() < xbar_->master_count()) {
    bank_regs_.resize(xbar_->master_count());
  }
  config_check(bank_regs_[master_index] == nullptr,
               "Soc: master " + std::to_string(master_index) +
                   " already has a bank regulator");
  if (brc.name == qos::RegulatorConfig{}.name) {
    brc.name = xbar_->master(master_index).name() + ".bankreg";
  }
  bank_regs_[master_index] = std::make_unique<qos::Regulator>(
      sim_, std::move(brc),
      dram::AddressMapper(cfg_.dram.timing, cfg_.dram.mapping));
  xbar_->master(master_index).add_gate(*bank_regs_[master_index]);
  if (telemetry::DecisionJournal* j = telemetry_.journal()) {
    bank_regs_[master_index]->set_journal(j);
  }
  return *bank_regs_[master_index];
}

qos::Regulator* Soc::bank_regulator(std::size_t master_index) {
  return master_index < bank_regs_.size() ? bank_regs_[master_index].get()
                                          : nullptr;
}

std::size_t Soc::apply_bank_budgets(const qos::BankBudgetSpec& spec) {
  for (const qos::BankBudgetSpec::PortBudget& pb : spec.ports) {
    config_check(pb.port < cfg_.accel_ports,
                 "Soc: bank budget names HP port " + std::to_string(pb.port) +
                     " but the platform has " +
                     std::to_string(cfg_.accel_ports));
    qos::RegulatorConfig brc;
    brc.window_ps = spec.window_ps;
    brc.kind = spec.kind;
    brc.max_accumulation_windows = spec.max_accumulation_windows;
    brc.bank_budget_bytes = spec.budgets_for(
        pb, static_cast<std::uint32_t>(cfg_.dram.timing.banks));
    add_bank_regulator(1 + pb.port, std::move(brc));
  }
  return spec.ports.size();
}

qos::DdrcThrottle& Soc::insert_ddrc_throttle(qos::DdrcThrottleConfig tc) {
  config_check(ddrc_throttle_ == nullptr,
               "Soc: DDRC throttle already inserted");
  axi::SlaveIf& inner = channel_router_ != nullptr
                            ? static_cast<axi::SlaveIf&>(*channel_router_)
                            : static_cast<axi::SlaveIf&>(*drams_[0]);
  ddrc_throttle_ =
      std::make_unique<qos::DdrcThrottle>(sim_, std::move(tc), inner, *xbar_);
  xbar_->set_slave(*ddrc_throttle_);
  return *ddrc_throttle_;
}

bool Soc::run_until_cores_finished(sim::TimePs deadline, sim::TimePs poll_ps) {
  while (sim_.now() < deadline) {
    if (cluster_->all_finished()) {
      return true;
    }
    const sim::TimePs step =
        std::min<sim::TimePs>(poll_ps, deadline - sim_.now());
    sim_.run_for(step);
  }
  return cluster_->all_finished();
}

bool Soc::run_until_serving_drained(sim::TimePs deadline) {
  const auto drained = [this] {
    return std::all_of(serving_.begin(), serving_.end(),
                       [](const auto& t) { return t->drained(); });
  };
  while (sim_.now() < deadline) {
    if (drained()) {
      return true;
    }
    const sim::TimePs step =
        std::min<sim::TimePs>(kServingDrainPollPs, deadline - sim_.now());
    sim_.run_for(step);
  }
  return drained();
}

double Soc::dram_bandwidth_bps() const {
  std::uint64_t bytes = 0;
  for (const auto& d : drams_) {
    bytes += d->stats().payload_bytes.value();
  }
  return sim::bytes_per_second(bytes, sim_.now());
}

telemetry::MetricsRegistry& Soc::collect_metrics() {
  telemetry::MetricsRegistry& reg = telemetry_.metrics();
  // Snapshot semantics: reset-then-add keeps counters idempotent across
  // repeated collections while preserving their type in exports.
  const auto set_counter = [&reg](const std::string& name, std::uint64_t v) {
    telemetry::Counter& c = reg.counter(name);
    c.reset();
    c.add(v);
  };
  const auto set_gauge = [&reg](const std::string& name, double v) {
    reg.gauge(name).set(v);
  };

  // DRAM: aggregate plus per-channel hierarchy (dram.ch0.row_hits, ...).
  std::uint64_t reads = 0, writes = 0, payload = 0, bus = 0, hits = 0;
  std::uint64_t acts = 0, conflicts = 0, refreshes = 0;
  double util = 0;
  for (std::size_t ch = 0; ch < drams_.size(); ++ch) {
    const auto& ds = drams_[ch]->stats();
    reads += ds.reads_serviced.value();
    writes += ds.writes_serviced.value();
    payload += ds.payload_bytes.value();
    bus += ds.bus_bytes.value();
    hits += ds.row_hits();
    acts += ds.activations.value();
    conflicts += ds.conflict_precharges.value();
    refreshes += ds.refreshes.value();
    util += drams_[ch]->bus_utilization(sim_.now());
    const std::string prefix = "dram.ch" + std::to_string(ch) + ".";
    set_counter(prefix + "reads", ds.reads_serviced.value());
    set_counter(prefix + "writes", ds.writes_serviced.value());
    set_counter(prefix + "payload_bytes", ds.payload_bytes.value());
    set_counter(prefix + "row_hits", ds.row_hits());
    set_counter(prefix + "activations", ds.activations.value());
    set_gauge(prefix + "bus_utilization",
              drams_[ch]->bus_utilization(sim_.now()));
  }
  set_counter("dram.reads", reads);
  set_counter("dram.writes", writes);
  set_counter("dram.payload_bytes", payload);
  set_counter("dram.bus_bytes", bus);
  set_counter("dram.row_hits", hits);
  set_counter("dram.activations", acts);
  set_counter("dram.conflict_precharges", conflicts);
  set_counter("dram.refreshes", refreshes);
  set_gauge("dram.bus_utilization", util / static_cast<double>(drams_.size()));
  std::uint64_t oob = 0;
  for (const auto& d : drams_) {
    oob += d->mapper().oob_decodes();
  }
  set_counter("dram.oob_decodes", oob);

  if (cfg_.bank_telemetry) {
    const auto banks = static_cast<std::uint32_t>(cfg_.dram.timing.banks);
    for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
      const auto mid = static_cast<axi::MasterId>(m);
      const std::string pname = xbar_->master(m).name();
      std::uint64_t port_total = 0;
      for (const auto& d : drams_) {
        port_total += d->master_bytes(mid);
      }
      set_counter("dram.port." + pname + ".bytes", port_total);
      for (std::uint32_t b = 0; b < banks; ++b) {
        std::uint64_t bytes = 0, cas = 0;
        for (const auto& d : drams_) {
          bytes += d->bank_bytes(mid, b);
          cas += d->bank_cas(mid, b);
        }
        if (bytes == 0 && cas == 0) {
          continue;  // keep the cardinality at touched cells only
        }
        const std::string prefix =
            "dram.bank." + std::to_string(b) + ".port." + pname + ".";
        set_counter(prefix + "bytes", bytes);
        set_counter(prefix + "cas", cas);
      }
    }
  }

  for (std::size_t m = 0; m < xbar_->master_count(); ++m) {
    const axi::MasterPort& p = xbar_->master(m);
    const std::string prefix = "port." + p.name() + ".";
    set_counter(prefix + "txns", p.stats().txns_completed.value());
    set_counter(prefix + "bytes", p.stats().bytes_granted.value());
    set_counter(prefix + "read_bytes", p.stats().read_bytes.value());
    set_counter(prefix + "write_bytes", p.stats().write_bytes.value());
    set_gauge(prefix + "read_mean_ps", p.stats().read_latency.mean());
    set_gauge(prefix + "read_p99_ps",
              static_cast<double>(p.stats().read_latency.p99()));
  }

  // Regulator totals as qos.<name>.*, plus qos.<name>.bank.<b>.* for each
  // regulated bank of a bank-keyed gate.
  const auto set_regulator_counters = [&](const std::string& rp,
                                          const qos::RegulatorStats& rs) {
    set_counter(rp + "exhausted_windows", rs.exhausted_windows);
    set_counter(rp + "throttled_ps", rs.throttled_ps);
    set_counter(rp + "regulated_bytes", rs.regulated_bytes);
  };
  const auto publish_regulator = [&](const qos::Regulator& r) {
    const std::string rp = "qos." + r.config().name + ".";
    set_regulator_counters(rp, r.stats());
    for (std::uint32_t b = 0; b < r.banks(); ++b) {
      if (r.bank_limited(b)) {
        set_regulator_counters(rp + "bank." + std::to_string(b) + ".",
                               r.bank_stats(b));
      }
    }
  };
  for (const auto& block : qos_blocks_) {
    publish_regulator(*block.regulator);
    const std::string mp = "qos." + block.monitor->config().name + ".";
    set_counter(mp + "total_bytes", block.monitor->total_bytes());
    set_counter(mp + "windows_closed", block.monitor->windows_closed());
  }
  for (const auto& br : bank_regs_) {
    if (br != nullptr) {
      publish_regulator(*br);
    }
  }

  for (const auto& tg : traffic_gens_) {
    const std::string prefix = "tg." + tg->config().name + ".";
    set_counter(prefix + "issued_bytes", tg->stats().issued_bytes);
    set_counter(prefix + "completed_bytes", tg->stats().completed_bytes);
    set_counter(prefix + "transactions", tg->stats().transactions);
  }

  for (const auto& tenant : serving_) {
    const std::string prefix = "serving." + tenant->spec().name + ".";
    const auto& ss = tenant->stats();
    set_counter(prefix + "generated", ss.generated);
    set_counter(prefix + "completed", ss.completed);
    set_counter(prefix + "dropped", ss.dropped);
    set_counter(prefix + "slo_met", ss.slo_met);
    set_counter(prefix + "error_completions", ss.error_completions);
    set_counter(prefix + "issued_bytes", ss.issued_bytes);
    set_counter(prefix + "completed_bytes", ss.completed_bytes);
    set_gauge(prefix + "offered_qps", tenant->offered_qps());
    set_gauge(prefix + "completed_qps", tenant->completed_qps());
    set_gauge(prefix + "queue_depth",
              static_cast<double>(tenant->queue_depth()));
    set_gauge(prefix + "peak_queue_depth",
              static_cast<double>(ss.peak_queue_depth));
    set_gauge(prefix + "p50_ps", static_cast<double>(tenant->latency().p50()));
    set_gauge(prefix + "p99_ps", static_cast<double>(tenant->latency().p99()));
    set_gauge(prefix + "p999_ps",
              static_cast<double>(tenant->latency().p999()));
    // Zero-sample attainment is unavailable, not 100%: the gauge is only
    // published once a request finished, so downstream readers get
    // absence (rendered n/a / null) instead of a fabricated number.
    if (tenant->slo_attainment_available()) {
      set_gauge(prefix + "slo_attainment_pct",
                tenant->slo_attainment() * 100.0);
    }
    telemetry::Histogram& lat = reg.histogram(prefix + "latency_ps");
    lat.reset();
    lat.merge(tenant->latency());
  }

  set_gauge("cluster.l2_hit_rate", cluster_->l2().stats().hit_rate());
  for (std::size_t c = 0; c < cluster_->core_count(); ++c) {
    const cpu::CpuCore& core = cluster_->core(c);
    const std::string prefix = "core." + core.config().name + ".";
    set_counter(prefix + "iterations", core.stats().iterations);
    set_gauge(prefix + "iter_mean_ps", core.stats().iteration_ps.mean());
    set_gauge(prefix + "iter_p99_ps",
              static_cast<double>(core.stats().iteration_ps.p99()));
    set_gauge(prefix + "l1_hit_rate", core.l1().stats().hit_rate());
  }

  if (telemetry::AttributionEngine* attr = telemetry_.attribution()) {
    attr->publish_metrics();
  }

  // Kernel self-profiling.
  set_counter("sim.events_dispatched", sim_.events_dispatched());
  set_counter("sim.ticks", sim_.tick_count());
  // Awake ticks per clocked component: which components a run keeps
  // awake, and so where its host time goes. The memory path also reports
  // how many of them did work (busy_ticks: a crossbar grant, a DRAM
  // command or refresh).
  const auto set_ticks = [&](const std::string& name, const sim::Clocked& c) {
    set_counter("sim.clocked." + name + ".ticks", c.ticks_fired());
  };
  const auto set_busy = [&](const std::string& name, const sim::Clocked& c) {
    set_ticks(name, c);
    set_counter("sim.clocked." + name + ".busy_ticks", c.busy_ticks());
  };
  set_busy(xbar_->name(), *xbar_);
  for (std::size_t ch = 0; ch < drams_.size(); ++ch) {
    set_busy("dram.ch" + std::to_string(ch), *drams_[ch]);
  }
  set_ticks(cluster_->name(), *cluster_);
  for (std::size_t c = 0; c < cluster_->core_count(); ++c) {
    set_ticks(cluster_->core(c).name(), cluster_->core(c));
  }
  for (const auto& tg : traffic_gens_) {
    set_ticks(tg->name(), *tg);
  }
  for (const auto& tenant : serving_) {
    set_ticks(tenant->name(), *tenant);
  }
  set_gauge("sim.max_event_queue",
            static_cast<double>(sim_.max_event_queue()));
  set_counter("sim.wall_ns", sim_.wall_ns());
  set_gauge("sim.wall_s_per_sim_s", sim_.wall_s_per_sim_s());

  // Host profiler (cfg.profile): per-tag CPU attribution. Host-dependent
  // like sim.wall*, so collect_stats() excludes the whole profile.*
  // namespace from the legacy view.
  if (const telemetry::HostProfiler* prof = telemetry_.profiler()) {
    const telemetry::ProfileSnapshot snap = prof->snapshot();
    set_counter("profile.total_cycles", snap.total_cycles);
    set_gauge("profile.coverage", snap.coverage());
    for (const auto& t : snap.tags) {
      set_counter("profile.tag." + t.name + ".count", t.count);
      set_counter("profile.tag." + t.name + ".cycles", t.cycles);
    }
  }
  return reg;
}

void Soc::collect_stats(sim::StatsRegistry& out) const {
  // Legacy scalar view, derived from the metrics registry so both exports
  // agree; histograms are only visible through the registry. Host-side
  // wall-clock metrics (sim.wall*, profile.*) are excluded: this view must
  // stay bit-identical across runs of the same configuration.
  const_cast<Soc*>(this)->collect_metrics().for_each_scalar(
      [&out](const std::string& name, double value) {
        if (name.rfind("sim.wall", 0) == 0 || name.rfind("profile.", 0) == 0) {
          return;
        }
        out.set(name, value);
      });
}

}  // namespace fgqos::soc

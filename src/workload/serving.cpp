#include "workload/serving.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>

#include "exec/job.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace fgqos::wl {

namespace {

constexpr std::uint64_t kLineBytes = 64;
// Bounds the shared Zipf table: at 2^22 keys a 32 MiB CDF plus a 1 MiB
// guide.
constexpr std::uint64_t kMaxKeys = 1ull << 22;
constexpr axi::Addr kAutoBase = 0x8000'0000ull;
constexpr const char* kSpec = "ServingSpec";

using util::append_number;
using util::append_u64;

void append_us(std::string& out, sim::TimePs ps) {
  append_number(out,
                static_cast<double>(ps) / static_cast<double>(sim::kPsPerUs));
}

bool metric_safe_name(const std::string& name) {
  if (name.empty() || name.size() > 32) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

/// Exponentially-distributed ps with the given mean, never 0 (time must
/// advance). Computed in double then rounded; deterministic for a given
/// RNG stream.
sim::TimePs exp_ps(sim::Xoshiro256& rng, double mean_ps) {
  const double u = rng.next_double();  // [0, 1)
  double x = -std::log1p(-u) * mean_ps;
  x = std::min(x, 9e18);
  const auto ps = static_cast<sim::TimePs>(std::llround(x));
  return ps == 0 ? 1 : ps;
}

/// SplitMix64-style finalizer: scatters adjacent Zipf ranks across the
/// tenant footprint so hot keys do not all share one DRAM row.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

axi::Addr resolved_base(const ServingTenantSpec& spec) {
  if (spec.base != 0) {
    return spec.base;
  }
  return kAutoBase +
         static_cast<axi::Addr>(spec.port) * spec.footprint_bytes;
}

void validate_tenant(const ServingTenantSpec& t) {
  config_check(metric_safe_name(t.name),
               "ServingSpec: tenant 'name' must be 1-32 chars of "
               "[A-Za-z0-9_-]");
  config_check(t.port < 64, "ServingSpec: 'port' must be < 64");
  config_check(std::isfinite(t.rate_qps) && t.rate_qps > 0 &&
                   t.rate_qps <= 1e9,
               "ServingSpec: 'rate_qps' must be in (0, 1e9]");
  if (t.arrival == ArrivalKind::kMmpp) {
    config_check(std::isfinite(t.burst_qps) && t.burst_qps > 0 &&
                     t.burst_qps <= 1e9,
                 "ServingSpec: mmpp needs 'burst_qps' in (0, 1e9]");
    config_check(t.dwell_ps > 0,
                 "ServingSpec: mmpp needs 'dwell_us' > 0");
    config_check(t.burst_dwell_ps > 0,
                 "ServingSpec: mmpp needs 'burst_dwell_us' > 0");
  }
  config_check(std::isfinite(t.zipf_s) && t.zipf_s >= 0 && t.zipf_s <= 8,
               "ServingSpec: 'zipf_s' must be in [0, 8]");
  config_check(t.key_count >= 1 && t.key_count <= kMaxKeys,
               "ServingSpec: 'keys' must be in [1, 2^22]");
  config_check(t.value_bytes >= 1 && t.value_bytes <= 65536,
               "ServingSpec: 'value_bytes' must be in [1, 65536]");
  config_check(t.value_bytes_max == 0 ||
                   (t.value_bytes_max >= t.value_bytes &&
                    t.value_bytes_max <= 65536),
               "ServingSpec: 'value_bytes_max' must be 0 or in "
               "[value_bytes, 65536]");
  config_check(t.read_fraction >= 0.0 && t.read_fraction <= 1.0,
               "ServingSpec: 'read_fraction' must be in [0, 1]");
  config_check(t.slo_ps > 0, "ServingSpec: 'slo_us' must be > 0");
  config_check(t.max_outstanding >= 1 && t.max_outstanding <= 64,
               "ServingSpec: 'max_outstanding' must be in [1, 64]");
  config_check(t.queue_capacity >= 1 && t.queue_capacity <= (1u << 20),
               "ServingSpec: 'queue_capacity' must be in [1, 2^20]");
  config_check(t.footprint_bytes >= 4096 &&
                   t.footprint_bytes <= (1ull << 30) &&
                   t.footprint_bytes > t.value_bytes,
               "ServingSpec: footprint_bytes must be in [4096, 1 GiB] and "
               "larger than one value");
}

}  // namespace

const char* arrival_kind_name(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kMmpp: return "mmpp";
  }
  return "?";
}

ArrivalKind arrival_kind_from_name(const std::string& name) {
  if (name == "poisson") {
    return ArrivalKind::kPoisson;
  }
  if (name == "mmpp") {
    return ArrivalKind::kMmpp;
  }
  throw ConfigError("ServingSpec: unknown arrival kind '" + name + "'");
}

ServingSpec ServingSpec::from_json(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  config_check(doc.is_object(), "ServingSpec: top level must be an object");
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    config_check(key == "seed" || key == "duration_us" || key == "tenants",
                 "ServingSpec: unknown top-level key '" + key + "'");
  }
  ServingSpec spec;
  if (doc.contains("seed")) {
    spec.seed = util::get_u64(doc, kSpec, "seed");
  }
  if (doc.contains("duration_us")) {
    spec.duration_ps = util::get_us_as_ps(doc, kSpec, "duration_us");
    config_check(spec.duration_ps > 0,
                 "ServingSpec: 'duration_us' must be > 0");
  }
  if (!doc.contains("tenants")) {
    return spec;
  }
  config_check(doc.at("tenants").is_array(),
               "ServingSpec: 'tenants' must be an array");
  for (const util::JsonValue& tv : doc.at("tenants").as_array()) {
    config_check(tv.is_object(), "ServingSpec: each tenant must be an object");
    for (const auto& [key, value] : tv.as_object()) {
      (void)value;
      config_check(
          key == "name" || key == "port" || key == "arrival" ||
              key == "rate_qps" || key == "burst_qps" || key == "dwell_us" ||
              key == "burst_dwell_us" || key == "zipf_s" || key == "keys" ||
              key == "value_bytes" || key == "value_bytes_max" ||
              key == "read_fraction" || key == "slo_us" ||
              key == "max_outstanding" || key == "queue_capacity" ||
              key == "start_us",
          "ServingSpec: unknown tenant key '" + key + "'");
    }
    ServingTenantSpec t;
    if (tv.contains("name")) {
      t.name = tv.at("name").as_string();
    }
    if (tv.contains("port")) {
      t.port = static_cast<std::size_t>(util::get_u64(tv, kSpec, "port"));
    }
    if (tv.contains("arrival")) {
      t.arrival = arrival_kind_from_name(tv.at("arrival").as_string());
    }
    if (tv.contains("rate_qps")) {
      t.rate_qps = tv.at("rate_qps").as_number();
    }
    if (t.arrival == ArrivalKind::kPoisson) {
      config_check(!tv.contains("burst_qps") && !tv.contains("dwell_us") &&
                       !tv.contains("burst_dwell_us"),
                   "ServingSpec: 'burst_qps'/'dwell_us'/'burst_dwell_us' "
                   "require arrival \"mmpp\"");
    } else {
      if (tv.contains("burst_qps")) {
        t.burst_qps = tv.at("burst_qps").as_number();
      }
      if (tv.contains("dwell_us")) {
        t.dwell_ps = util::get_us_as_ps(tv, kSpec, "dwell_us");
      }
      if (tv.contains("burst_dwell_us")) {
        t.burst_dwell_ps = util::get_us_as_ps(tv, kSpec, "burst_dwell_us");
      }
    }
    if (tv.contains("zipf_s")) {
      t.zipf_s = tv.at("zipf_s").as_number();
    }
    if (tv.contains("keys")) {
      t.key_count = util::get_u64(tv, kSpec, "keys");
    }
    if (tv.contains("value_bytes")) {
      const std::uint64_t v = util::get_u64(tv, kSpec, "value_bytes");
      config_check(v >= 1 && v <= 65536,
                   "ServingSpec: 'value_bytes' must be in [1, 65536]");
      t.value_bytes = static_cast<std::uint32_t>(v);
    }
    if (tv.contains("value_bytes_max")) {
      const std::uint64_t v = util::get_u64(tv, kSpec, "value_bytes_max");
      config_check(v <= 65536,
                   "ServingSpec: 'value_bytes_max' must be <= 65536");
      t.value_bytes_max = static_cast<std::uint32_t>(v);
    }
    if (tv.contains("read_fraction")) {
      t.read_fraction = tv.at("read_fraction").as_number();
    }
    if (tv.contains("slo_us")) {
      t.slo_ps = util::get_us_as_ps(tv, kSpec, "slo_us");
    }
    if (tv.contains("max_outstanding")) {
      t.max_outstanding =
          static_cast<std::size_t>(util::get_u64(tv, kSpec, "max_outstanding"));
    }
    if (tv.contains("queue_capacity")) {
      t.queue_capacity =
          static_cast<std::size_t>(util::get_u64(tv, kSpec, "queue_capacity"));
    }
    if (tv.contains("start_us")) {
      t.start_ps = util::get_us_as_ps(tv, kSpec, "start_us");
    }
    validate_tenant(t);
    for (const ServingTenantSpec& other : spec.tenants) {
      config_check(other.name != t.name,
                   "ServingSpec: duplicate tenant name '" + t.name + "'");
      config_check(other.port != t.port,
                   "ServingSpec: tenants '" + other.name + "' and '" +
                       t.name + "' share port " + std::to_string(t.port));
    }
    spec.tenants.push_back(t);
  }
  return spec;
}

ServingSpec ServingSpec::from_file(const std::string& path) {
  return from_json(
      util::read_file(path, "ServingSpec: cannot open '" + path + "'"));
}

std::string ServingSpec::to_json() const {
  std::string out = "{\"seed\": ";
  append_u64(out, seed);
  out += ", \"duration_us\": ";
  append_us(out, duration_ps);
  out += ", \"tenants\": [";
  bool first = true;
  for (const ServingTenantSpec& t : tenants) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{\"name\": \"";
    out += t.name;
    out += "\", \"port\": ";
    append_u64(out, t.port);
    out += ", \"arrival\": \"";
    out += arrival_kind_name(t.arrival);
    out += "\", \"rate_qps\": ";
    append_number(out, t.rate_qps);
    if (t.arrival == ArrivalKind::kMmpp) {
      out += ", \"burst_qps\": ";
      append_number(out, t.burst_qps);
      out += ", \"dwell_us\": ";
      append_us(out, t.dwell_ps);
      out += ", \"burst_dwell_us\": ";
      append_us(out, t.burst_dwell_ps);
    }
    out += ", \"zipf_s\": ";
    append_number(out, t.zipf_s);
    out += ", \"keys\": ";
    append_u64(out, t.key_count);
    out += ", \"value_bytes\": ";
    append_u64(out, t.value_bytes);
    if (t.value_bytes_max != 0) {
      out += ", \"value_bytes_max\": ";
      append_u64(out, t.value_bytes_max);
    }
    out += ", \"read_fraction\": ";
    append_number(out, t.read_fraction);
    out += ", \"slo_us\": ";
    append_us(out, t.slo_ps);
    out += ", \"max_outstanding\": ";
    append_u64(out, t.max_outstanding);
    out += ", \"queue_capacity\": ";
    append_u64(out, t.queue_capacity);
    if (t.start_ps > 0) {
      out += ", \"start_us\": ";
      append_us(out, t.start_ps);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

/// One guide bucket per 16 keys, rounded up to a power of two: then
/// u * m and k / m are exact in double, so bucket k holds exactly the u
/// in [k / m, (k + 1) / m) and no rounding can put a draw in the wrong
/// one. Finer guides measured no faster on a cold cache (the CDF line a
/// draw lands on is the miss either way) and cost more memory.
std::size_t guide_buckets(std::uint64_t n) {
  return std::bit_ceil(static_cast<std::size_t>(std::max<std::uint64_t>(
      1, n / 16)));
}

ZipfianSampler::Table build_zipf_table(std::uint64_t n, double s) {
  ZipfianSampler::Table t;
  std::vector<double>& cdf = t.cdf;
  cdf.resize(static_cast<std::size_t>(n));
  double total = 0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf[i] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }
  cdf.back() = 1.0;
  const std::size_t m = guide_buckets(n);
  t.guide.resize(m + 1);
  std::size_t i = 0;
  for (std::size_t k = 0; k <= m; ++k) {
    const double edge = static_cast<double>(k) / static_cast<double>(m);
    while (i < cdf.size() && cdf[i] <= edge) {
      ++i;
    }
    t.guide[k] = static_cast<std::uint32_t>(i);
  }
  return t;
}

/// The table of the last (n, s) built in the process. A single entry
/// bounds the memory by construction. The build runs outside the lock:
/// concurrent misses may each build, and the last one stays cached.
std::shared_ptr<const ZipfianSampler::Table> shared_zipf_table(
    std::uint64_t n, double s) {
  static std::mutex mu;
  static std::shared_ptr<const ZipfianSampler::Table> last;
  static double last_s = 0;
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (last != nullptr && last->cdf.size() == n && last_s == s) {
      return last;
    }
  }
  auto built =
      std::make_shared<const ZipfianSampler::Table>(build_zipf_table(n, s));
  const std::lock_guard<std::mutex> lock(mu);
  last = built;
  last_s = s;
  return built;
}

}  // namespace

ZipfianSampler::ZipfianSampler(std::uint64_t n, double s) {
  config_check(n >= 1 && n <= kMaxKeys,
               "ZipfianSampler: n must be in [1, 2^22]");
  config_check(std::isfinite(s) && s >= 0 && s <= 8,
               "ZipfianSampler: s must be in [0, 8]");
  table_ = shared_zipf_table(n, s);
}

std::uint64_t ZipfianSampler::rank_at(double u) const {
  const std::vector<double>& cdf = table_->cdf;
  auto first = cdf.begin();
  auto last = cdf.end();
  // Outside [0, 1) there is no bucket; search the whole table.
  if (u >= 0.0 && u < 1.0) {
    const std::vector<std::uint32_t>& guide = table_->guide;
    const auto k = static_cast<std::size_t>(
        u * static_cast<double>(guide.size() - 1));
    first = cdf.begin() + guide[k];
    last = cdf.begin() + guide[k + 1];
  }
  const auto idx =
      static_cast<std::size_t>(std::upper_bound(first, last, u) - cdf.begin());
  return std::min(idx, cdf.size() - 1);
}

std::uint64_t serving_tenant_seed(std::uint64_t spec_seed,
                                  std::uint64_t run_seed,
                                  std::size_t tenant_index) {
  return exec::derive_seed(spec_seed ^ run_seed, tenant_index);
}

std::vector<sim::TimePs> generate_arrivals(const ServingTenantSpec& spec,
                                           sim::TimePs duration_ps,
                                           std::uint64_t seed) {
  std::vector<sim::TimePs> out;
  sim::Xoshiro256 rng(exec::derive_seed(seed, 0));
  const sim::TimePs end = spec.start_ps + duration_ps;
  sim::TimePs t = spec.start_ps;
  if (spec.arrival == ArrivalKind::kPoisson) {
    const double mean = 1e12 / spec.rate_qps;
    t += exp_ps(rng, mean);
    while (t < end) {
      out.push_back(t);
      t += exp_ps(rng, mean);
    }
    return out;
  }
  // 2-state MMPP: Poisson at the current state's rate; exponential dwell
  // in each state. Memorylessness makes resampling at a state switch
  // exact, so the walk below is a faithful sample path.
  const double mean_base = 1e12 / spec.rate_qps;
  const double mean_burst = 1e12 / spec.burst_qps;
  bool burst = false;
  sim::TimePs next_switch =
      t + exp_ps(rng, static_cast<double>(spec.dwell_ps));
  while (t < end) {
    const sim::TimePs dt = exp_ps(rng, burst ? mean_burst : mean_base);
    if (t + dt >= next_switch) {
      t = next_switch;
      burst = !burst;
      next_switch = t + exp_ps(rng, static_cast<double>(
                                        burst ? spec.burst_dwell_ps
                                              : spec.dwell_ps));
      continue;
    }
    t += dt;
    if (t < end) {
      out.push_back(t);
    }
  }
  return out;
}

std::vector<ServingOp> generate_ops(const ServingTenantSpec& spec,
                                    sim::TimePs duration_ps,
                                    std::uint64_t seed) {
  const std::vector<sim::TimePs> arrivals =
      generate_arrivals(spec, duration_ps, seed);
  sim::Xoshiro256 rng(exec::derive_seed(seed, 1));
  const ZipfianSampler zipf(spec.key_count, spec.zipf_s);
  const axi::Addr base = resolved_base(spec);
  const std::uint32_t max_value =
      spec.value_bytes_max != 0 ? spec.value_bytes_max : spec.value_bytes;
  const std::uint64_t span = spec.footprint_bytes > max_value
                                 ? spec.footprint_bytes - max_value
                                 : kLineBytes;
  const std::uint64_t slots = std::max<std::uint64_t>(1, span / kLineBytes);
  std::vector<ServingOp> ops;
  ops.reserve(arrivals.size());
  for (const sim::TimePs at : arrivals) {
    ServingOp op;
    op.arrival_ps = at;
    const std::uint64_t rank = zipf.sample(rng);
    op.addr = base + (mix64(rank) % slots) * kLineBytes;
    op.bytes = spec.value_bytes_max != 0
                   ? static_cast<std::uint32_t>(
                         rng.next_in(spec.value_bytes, spec.value_bytes_max))
                   : spec.value_bytes;
    op.dir = rng.next_bool(spec.read_fraction) ? axi::Dir::kRead
                                               : axi::Dir::kWrite;
    ops.push_back(op);
  }
  return ops;
}

ServingTenant::ServingTenant(sim::Simulator& sim,
                             const sim::ClockDomain& clk,
                             ServingTenantSpec spec, sim::TimePs duration_ps,
                             std::uint64_t seed, axi::MasterPort& port)
    : sim::Clocked(sim, clk, spec.name),
      spec_(std::move(spec)),
      port_(&port) {
  validate_tenant(spec_);
  config_check(duration_ps > 0, "ServingTenant: duration must be > 0");
  spec_.base = resolved_base(spec_);
  ops_ = generate_ops(spec_, duration_ps, seed);
}

void ServingTenant::on_complete(const axi::Transaction& txn) {
  --in_flight_;
  const ServingOp& op = ops_[static_cast<std::size_t>(txn.user)];
  const sim::TimePs lat = txn.completed - op.arrival_ps;
  latency_.record(lat);
  ++stats_.completed;
  stats_.completed_bytes += txn.bytes;
  if (txn.resp != axi::Resp::kOkay) {
    // A degraded response still resolves the request (the server would
    // answer with an error); it is counted, and its latency recorded,
    // like any completion.
    ++stats_.error_completions;
  }
  if (lat <= spec_.slo_ps) {
    ++stats_.slo_met;
  }
  stats_.last_completion_at = txn.completed;
  wake();
}

bool ServingTenant::drained() const {
  return next_op_ == ops_.size() && queue_.empty() && in_flight_ == 0;
}

std::uint64_t ServingTenant::finished() const {
  return stats_.completed + stats_.dropped;
}

bool ServingTenant::slo_attainment_available() const {
  return finished() != 0;
}

double ServingTenant::slo_attainment() const {
  const std::uint64_t n = finished();
  if (n == 0) {
    // Pinned zero-sample result: total and NaN-free, but meaningless —
    // render paths consult slo_attainment_available() and emit n/a.
    return 1.0;
  }
  return static_cast<double>(stats_.slo_met) / static_cast<double>(n);
}

double ServingTenant::offered_qps() const {
  const sim::TimePs now = simulator().now();
  if (now == 0) {
    return 0.0;
  }
  return static_cast<double>(stats_.generated) * 1e12 /
         static_cast<double>(now);
}

double ServingTenant::completed_qps() const {
  const sim::TimePs now = simulator().now();
  if (now == 0) {
    return 0.0;
  }
  return static_cast<double>(stats_.completed) * 1e12 /
         static_cast<double>(now);
}

bool ServingTenant::tick(sim::Cycles /*cycle*/) {
  const sim::TimePs now = simulator().now();
  // Open-loop admission: every arrival due by now enters the system
  // unconditionally — a stalled service path cannot push back on the
  // schedule, it can only grow the queue (or overflow it into drops).
  while (next_op_ < ops_.size() && ops_[next_op_].arrival_ps <= now) {
    ++stats_.generated;
    if (stats_.first_arrival_at == sim::kTimeNever) {
      stats_.first_arrival_at = ops_[next_op_].arrival_ps;
    }
    if (queue_.size() >= spec_.queue_capacity) {
      ++stats_.dropped;
    } else {
      queue_.push_back(next_op_);
      stats_.peak_queue_depth =
          std::max<std::uint64_t>(stats_.peak_queue_depth, queue_.size());
    }
    ++next_op_;
  }
  // Service: issue from the head of the queue up to the concurrency cap.
  while (!queue_.empty() && in_flight_ < spec_.max_outstanding) {
    const std::size_t idx = queue_.front();
    const ServingOp& op = ops_[idx];
    if (!port_->issue(*this, op.dir, op.addr, op.bytes,
                      static_cast<std::uint64_t>(idx))) {
      return true;  // port queue full; retry next cycle
    }
    queue_.pop_front();
    ++in_flight_;
    stats_.issued_bytes += op.bytes;
  }
  if (next_op_ < ops_.size()) {
    wake_at(ops_[next_op_].arrival_ps);
  }
  return false;  // sleep; the next arrival or a completion wakes us
}

std::string attainment_pct_cell(const ServingTenant& tenant, int decimals) {
  if (!tenant.slo_attainment_available()) {
    return "n/a";
  }
  return util::format_fixed(tenant.slo_attainment() * 100.0, decimals);
}

}  // namespace fgqos::wl

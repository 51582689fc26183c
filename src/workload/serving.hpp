/// \file serving.hpp
/// \brief Request-serving workload family: key-value tenants with Zipfian
///        key popularity and open-loop arrival processes.
///
/// The paper regulates raw bandwidth streams; this layer models what those
/// streams carry at production scale — request-level traffic whose contract
/// is tail latency, not MB/s. A ServingTenant is a memcache-style client
/// population bound to one SoC master port: requests arrive on an
/// open-loop schedule (Poisson, or a bursty two-state MMPP), pick keys by
/// a Zipfian popularity law, and traverse the full memory path as AXI
/// transactions. Per-request latency (arrival to completion, queueing
/// included) feeds a per-tenant sim::Histogram and per-tenant SLO
/// attainment against a deadline.
///
/// Everything random is pre-generated into an op buffer at construction
/// (the RACoherence workload idiom): the hot path replays immutable
/// descriptors, so a tenant's traffic is a pure function of
/// (spec, duration, seed) — byte-identical across --jobs and replayable
/// under fault injection.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "axi/interconnect.hpp"
#include "sim/histogram.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fgqos::wl {

/// Open-loop arrival process of a tenant.
enum class ArrivalKind : std::uint8_t {
  kPoisson,  ///< exponential inter-arrivals at rate_qps
  kMmpp,     ///< 2-state Markov-modulated Poisson (base + burst state)
};

/// Returns "poisson" / "mmpp".
const char* arrival_kind_name(ArrivalKind k);
/// Inverse of arrival_kind_name; throws ConfigError on unknown names.
ArrivalKind arrival_kind_from_name(const std::string& name);

/// One tenant of the serving population. JSON schema (all fields
/// optional unless noted, unknown keys rejected):
///   name            string, unique per spec (CSV/metric-safe)
///   port            HP port index (unique per spec)
///   arrival         "poisson" | "mmpp"
///   rate_qps        mean offered load; MMPP: base-state rate
///   burst_qps       MMPP only: burst-state rate
///   dwell_us        MMPP only: mean dwell in the base state
///   burst_dwell_us  MMPP only: mean dwell in the burst state
///   zipf_s          key-popularity exponent (0 = uniform)
///   keys            key-space size
///   value_bytes     value size (fixed, or minimum when value_bytes_max set)
///   value_bytes_max 0 = fixed size; else uniform in [value_bytes, max]
///   read_fraction   GET fraction (rest are SETs / writes)
///   slo_us          per-request deadline for SLO attainment
///   max_outstanding service concurrency (in-flight AXI transactions)
///   queue_capacity  pending-request bound; overflow counts as dropped
///   start_us        arrivals begin this long into the run
struct ServingTenantSpec {
  std::string name = "lc";
  std::size_t port = 0;
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double rate_qps = 100000.0;
  double burst_qps = 0.0;
  sim::TimePs dwell_ps = 0;
  sim::TimePs burst_dwell_ps = 0;
  double zipf_s = 0.99;
  std::uint64_t key_count = 65536;
  std::uint32_t value_bytes = 1024;
  std::uint32_t value_bytes_max = 0;
  double read_fraction = 0.95;
  sim::TimePs slo_ps = 5 * sim::kPsPerUs;
  std::size_t max_outstanding = 8;
  std::size_t queue_capacity = 4096;
  sim::TimePs start_ps = 0;
  /// Key-space placement (not serialized): 0 = auto-assign by port.
  axi::Addr base = 0;
  std::uint64_t footprint_bytes = 64ull << 20;
};

/// A whole serving scenario: shared seed + arrival horizon + tenants.
/// Top-level JSON keys: "seed", "duration_us", "tenants".
struct ServingSpec {
  std::uint64_t seed = 1;
  sim::TimePs duration_ps = 10 * sim::kPsPerMs;
  std::vector<ServingTenantSpec> tenants;

  /// Parses + validates; throws ConfigError naming the offending field.
  static ServingSpec from_json(const std::string& text);
  static ServingSpec from_file(const std::string& path);
  /// Canonical serialization; from_json(to_json()) round-trips exactly
  /// (uint64 seed included — integer path, never through double).
  [[nodiscard]] std::string to_json() const;
};

/// Bounded Zipfian sampler over ranks [0, n): P(rank r) ~ 1/(r+1)^s.
/// Inverse-CDF over a precomputed table — exact for any s >= 0 (s = 0 is
/// uniform), used only at op-buffer generation time.
///
/// The table is immutable and shared: a sampler reuses the table of the
/// last (n, s) built in the process and builds only when n or s differs,
/// so a run pays for the samples it draws, not for the key space. Two
/// threads that miss at once both build; the tables are equal, so the
/// race costs time, never a different rank.
class ZipfianSampler {
 public:
  /// The shared immutable part.
  struct Table {
    /// cdf[i] = P(rank <= i), the sequential pow sum normalised by its
    /// total; back() is exactly 1.
    std::vector<double> cdf;
    /// Chen's guide table over m = guide.size() - 1 equal buckets of u,
    /// m a power of two: guide[k] is the first index whose CDF exceeds
    /// k / m, so the rank of any u in bucket k lies in
    /// [guide[k], guide[k + 1]].
    std::vector<std::uint32_t> guide;
  };

  ZipfianSampler(std::uint64_t n, double s);
  /// Rank in [0, n); rank 0 is the most popular key.
  [[nodiscard]] std::uint64_t sample(sim::Xoshiro256& rng) const {
    return rank_at(rng.next_double());
  }
  /// Rank of the uniform draw \p u in [0, 1): the first index whose CDF
  /// exceeds u (the full-table std::upper_bound), clamped to n - 1.
  [[nodiscard]] std::uint64_t rank_at(double u) const;
  [[nodiscard]] std::uint64_t n() const { return table_->cdf.size(); }
  [[nodiscard]] const Table& table() const { return *table_; }

 private:
  std::shared_ptr<const Table> table_;
};

/// One pre-generated request descriptor.
struct ServingOp {
  sim::TimePs arrival_ps;
  axi::Addr addr;
  std::uint32_t bytes;
  axi::Dir dir;
};

/// Per-tenant RNG seed: derive_seed lineage over (plan seed ^ run seed),
/// so equal (spec, run) pairs produce byte-identical op buffers on any
/// --jobs schedule.
[[nodiscard]] std::uint64_t serving_tenant_seed(std::uint64_t spec_seed,
                                                std::uint64_t run_seed,
                                                std::size_t tenant_index);

/// Pre-generates the arrival schedule over [start_ps, start_ps +
/// duration_ps). Pure function of (spec, duration, seed); uses the same
/// sub-stream generate_ops() uses for arrivals.
[[nodiscard]] std::vector<sim::TimePs> generate_arrivals(
    const ServingTenantSpec& spec, sim::TimePs duration_ps,
    std::uint64_t seed);

/// Pre-generates the full op buffer (arrival + key address + size + dir).
/// Pure function of (spec, duration, seed).
[[nodiscard]] std::vector<ServingOp> generate_ops(
    const ServingTenantSpec& spec, sim::TimePs duration_ps,
    std::uint64_t seed);

/// Tenant statistics. Conservation invariant (checked by tests): at any
/// time, generated == completed + dropped + in_flight + queue_depth.
struct ServingTenantStats {
  std::uint64_t generated = 0;  ///< arrivals admitted or dropped
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;    ///< queue-capacity overflow (an SLO miss)
  std::uint64_t slo_met = 0;    ///< completions within the deadline
  std::uint64_t error_completions = 0;  ///< non-OKAY responses (still done)
  std::uint64_t issued_bytes = 0;
  std::uint64_t completed_bytes = 0;
  std::uint64_t peak_queue_depth = 0;
  sim::TimePs first_arrival_at = sim::kTimeNever;
  sim::TimePs last_completion_at = 0;
};

/// The runtime tenant; drives one master port. Open-loop by construction:
/// the arrival schedule is fixed at build time, so a stalled service path
/// grows the pending queue (and eventually drops) instead of slowing the
/// offered load — the failure mode that separates open- from closed-loop
/// load generators.
class ServingTenant final : public sim::Clocked, axi::PortClient {
 public:
  /// \param port must outlive the tenant. The platform gives each tenant
  ///        a port of its own: the tenant's port.* metrics, protected-port
  ///        monitor and SLA watchdog all watch that port.
  ServingTenant(sim::Simulator& sim, const sim::ClockDomain& clk,
                ServingTenantSpec spec, sim::TimePs duration_ps,
                std::uint64_t seed, axi::MasterPort& port);

  [[nodiscard]] const ServingTenantSpec& spec() const { return spec_; }
  [[nodiscard]] const ServingTenantStats& stats() const { return stats_; }
  /// Request latency (arrival to completion, ps) over the whole run.
  [[nodiscard]] const sim::Histogram& latency() const { return latency_; }
  [[nodiscard]] const std::vector<ServingOp>& ops() const { return ops_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  /// True when every generated request has completed or been dropped.
  [[nodiscard]] bool drained() const;

  /// Requests with a final disposition (completed + dropped).
  [[nodiscard]] std::uint64_t finished() const;
  /// True once at least one request finished — only then is SLO
  /// attainment a measurement. Render paths must report "n/a" (CSV/text)
  /// or null (JSON) while this is false instead of a fabricated number;
  /// see attainment_pct_cell().
  [[nodiscard]] bool slo_attainment_available() const;
  /// SLO attainment over finished requests: slo_met / (completed +
  /// dropped). Drops count as misses. Zero-sample result is pinned to
  /// 1.0 (total function, never NaN) but carries no information — check
  /// slo_attainment_available() before reporting it.
  [[nodiscard]] double slo_attainment() const;
  /// Offered / completed request rates over [0, now].
  [[nodiscard]] double offered_qps() const;
  [[nodiscard]] double completed_qps() const;

  bool tick(sim::Cycles cycle) override;

 private:
  void on_complete(const axi::Transaction& txn) override;

  ServingTenantSpec spec_;
  axi::MasterPort* port_;
  std::vector<ServingOp> ops_;
  std::size_t next_op_ = 0;          ///< next arrival not yet admitted
  std::deque<std::size_t> queue_;    ///< admitted, awaiting an issue slot
  std::size_t in_flight_ = 0;
  ServingTenantStats stats_;
  sim::Histogram latency_;
};

/// Shared attainment-cell formatter for CSV/table output: the attainment
/// percentage with \p decimals fraction digits, or "n/a" while the tenant
/// has no finished requests. Every render path uses this so the
/// zero-sample treatment cannot drift between tools.
[[nodiscard]] std::string attainment_pct_cell(const ServingTenant& tenant,
                                              int decimals = 4);

}  // namespace fgqos::wl

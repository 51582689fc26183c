/// \file qos_manager.hpp
/// \brief Host-side QoS runtime: reservations, admission control,
///        CMRI-style dynamic reclamation of unused guaranteed bandwidth.
///
/// This is the software half of the paper's contribution: a user-level
/// manager that programs the per-port hardware QoS blocks exclusively
/// through their register files (as a Linux driver would) and periodically
/// redistributes slack bandwidth from under-consuming guaranteed masters
/// to best-effort masters.
///
/// Admission can additionally be backed by a measured worst-case
/// CertifiedEnvelope (set_envelope): reserve() then also rejects requests
/// that exceed a master's certified cap or the certified total, and a
/// reported excursion beyond any certified bound (on_envelope_violated)
/// drops the manager into a conservative fallback mode — reclamation
/// stops, every port is clamped to its certified budget, and further
/// reservations are refused until the envelope is re-certified.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "axi/types.hpp"
#include "qos/regfile.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fgqos::telemetry {
class DecisionJournal;
class MetricsRegistry;
}  // namespace fgqos::telemetry

namespace fgqos::qos {

struct CertifiedEnvelope;

/// Manager configuration.
struct QosManagerConfig {
  /// Platform memory bandwidth the manager may hand out (bytes/second);
  /// typically the measured (not theoretical) peak.
  double capacity_bps = 16e9;
  /// Fraction of capacity that may be promised as guarantees.
  double max_reservable_frac = 0.85;
  /// Reclamation loop period (0 disables reclamation).
  sim::TimePs reclaim_period_ps = 100 * sim::kPsPerUs;
  /// A reserved master using less than this fraction of its guarantee is
  /// considered idle and its slack becomes reclaimable.
  double idle_threshold = 0.5;
  /// Floor rate handed to best-effort ports when all slack is in use.
  double best_effort_floor_bps = 50e6;
};

/// One port under management.
struct ManagedPort {
  std::string name;
  axi::MasterId master = 0;
  QosRegFile* regfile = nullptr;
  bool best_effort = true;       ///< no guarantee; receives reclaimed slack
  double reserved_bps = 0.0;     ///< guaranteed rate (0 for best-effort)
};

/// The host runtime.
class QosManager {
 public:
  QosManager(sim::Simulator& sim, QosManagerConfig cfg);

  /// Registers a port (its register file must outlive the manager).
  void add_port(std::string name, axi::MasterId master, QosRegFile& regfile);

  /// Reserves \p bytes_per_second for \p master. Returns false (and leaves
  /// state unchanged) when admission control rejects the request.
  ///
  /// Boundary semantics (pinned by test): the capacity check rejects on
  /// `total > capacity_bps * max_reservable_frac` — strictly greater —
  /// so a request that lands *exactly* on the admissible boundary is
  /// accepted. The prospective total counts the requesting master at its
  /// new rate, not additionally at its old one, so re-reserving a master
  /// to a smaller rate can never be rejected. The envelope checks (when
  /// an envelope is attached) use the same strict-inequality convention.
  ///
  /// Every decision is recorded in the attached DecisionJournal with the
  /// binding constraint as its cause ("capacity_frac",
  /// "envelope_master_bound", "envelope_total_bound", or
  /// "envelope_fallback") and counted in qos.admission.{accepted,rejected}.
  [[nodiscard]] bool reserve(axi::MasterId master, double bytes_per_second);

  /// Drops the reservation; the port reverts to best-effort.
  void release(axi::MasterId master);

  /// Sum of currently admitted guarantees (bytes/second).
  [[nodiscard]] double reserved_total_bps() const;
  /// Remaining admissible guarantee capacity (bytes/second).
  [[nodiscard]] double available_bps() const;

  /// Starts the periodic reclamation loop (requires reclaim_period_ps > 0).
  void start_reclamation();
  /// Stops it.
  void stop_reclamation();
  [[nodiscard]] bool reclamation_active() const { return reclaiming_; }
  /// Number of reclamation iterations executed.
  [[nodiscard]] std::uint64_t reclaim_iterations() const {
    return reclaim_iterations_;
  }

  // --- observability -------------------------------------------------------

  /// Attaches the decision journal (nullptr detaches): every admission
  /// accept/reject/release and envelope event is recorded as component
  /// "qos.manager".
  void set_journal(telemetry::DecisionJournal* journal) { journal_ = journal; }
  /// Attaches the metrics registry (nullptr detaches): exports
  /// qos.admission.{accepted,rejected,released,envelope_violated} counters
  /// and the qos.admission.reserved_bps gauge.
  void set_metrics(telemetry::MetricsRegistry* metrics);

  // --- certified-envelope admission ---------------------------------------

  /// Backs admission with \p envelope (borrowed; must outlive the manager;
  /// nullptr detaches). reserve() then additionally enforces the
  /// per-master max_reserved_bps caps and certified_total_bps.
  void set_envelope(const CertifiedEnvelope* envelope);
  [[nodiscard]] const CertifiedEnvelope* envelope() const { return envelope_; }

  /// Reports a measured excursion beyond a certified bound (called by the
  /// SlaWatchdog cross-check, or by any external monitor). First call
  /// drops the manager into conservative fallback: a structured
  /// "envelope_violated" journal entry, reclamation stopped, best-effort
  /// ports floored, reserved ports clamped to their certified caps, and
  /// every later reserve() rejected with cause "envelope_fallback".
  /// Subsequent calls only bump the excursion counter.
  void on_envelope_violated(const std::string& source,
                            const std::string& quantity, double bound,
                            double measured);
  /// True once an excursion dropped the manager into fallback mode.
  [[nodiscard]] bool envelope_fallback() const { return envelope_fallback_; }

  [[nodiscard]] const QosManagerConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<ManagedPort>& ports() const {
    return ports_;
  }

 private:
  ManagedPort* find(axi::MasterId master);
  void program_rate(ManagedPort& port, double bps);
  void reclaim_tick(std::uint64_t epoch);
  void journal_record(const std::string& action, double old_value,
                      double new_value, const std::string& cause,
                      const std::string& detail);
  void update_reserved_gauge();

  sim::Simulator& sim_;
  QosManagerConfig cfg_;
  std::vector<ManagedPort> ports_;
  std::map<axi::MasterId, std::uint64_t> last_total_bytes_;
  bool reclaiming_ = false;
  sim::EventQueue::RecurringId reclaim_event_ = 0;
  bool reclaim_event_made_ = false;
  std::uint64_t reclaim_epoch_ = 0;
  std::uint64_t reclaim_iterations_ = 0;
  telemetry::DecisionJournal* journal_ = nullptr;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  const CertifiedEnvelope* envelope_ = nullptr;
  bool envelope_fallback_ = false;
};

}  // namespace fgqos::qos

/// \file attribution.hpp
/// \brief Interference-attribution engine: per-transaction stall blame.
///
/// Answers the question the plain monitors cannot: when a victim's
/// transaction waited, *who* occupied the resource it waited for, and
/// *where* in the memory path. Every queueing point (AXI port head,
/// crossbar arbitration, DRAM command queue) charges each waited
/// picosecond to an (victim, aggressor, cause) cell:
///
///   fabric_arb           lost crossbar arbitration / FR-FCFS scheduling or
///                        the shared data path was occupied by another
///                        master's in-flight work
///   dram_bank_conflict   the bank's row was closed or owned by another
///                        request (PRE + ACT + tRCD exposure)
///   dram_bus_turnaround  read<->write direction-switch windows
///                        (tWTR/tRTW) and write-drain batching
///   dram_refresh         the channel was blocked by refresh (tRFC)
///   self                 own doing: port rate limit, own QoS gate shut,
///                        queued behind own earlier transactions, or
///                        clock/pipeline alignment
///
/// Charges accumulate into per-window M x M x cause blame matrices
/// (picoseconds + bytes-delayed) plus a cumulative matrix. Window
/// rollovers notify listeners (qos::SlaWatchdog) and emit Chrome-trace
/// counter tracks when a TraceWriter is attached.
///
/// Accounting discipline: components track one WaitState per waiting
/// head/entry. A wait is opened once, charged in telescoping slices
/// (each slice runs from the previous charge to now), and closed
/// exactly once; the engine also accumulates each slice onto the
/// transaction (attr_charged_ps) while the hooks record the
/// independently measured wait (attr_measured_ps) from lifecycle
/// stamps. At completion the two must agree exactly — FGQOS_DEBUG_ASSERT
/// in debug builds, a `telemetry.attribution.residual_ps` gauge in
/// release builds.
///
/// Charging spans: a waiting component need not tick every cycle, nor
/// charge on every tick. Each tick it does run classifies every open wait
/// and hands the cell to charge_since(): while the cell stays the one the
/// wait stored, its span stays open; when it changes, the span up to the
/// previous edge goes to the stored cell and the last cycle to the new
/// one. That equals one charge per cycle as long as the component keeps
/// two wake rules while it holds an open, started wait:
///  * it ticks on every edge at which a wait's (aggressor, cause, bank)
///    cell can change: its own commands and grants, the arrivals and gate
///    or slave signals that already wake it, and the timed expiries its
///    classification reads (refresh and turnaround windows, rate limits);
///  * it ticks on its last edge at or before every window boundary and on
///    its first edge after it (window_edge()), and charges every wait
///    there, so no span straddles a boundary and windows roll over at the
///    same instant as under per-cycle charging (listeners read live
///    counters then).
/// Between window edges a component's open spans are not charged yet;
/// settle() charges them for readers that run in between.
///
/// Zero-cost when disabled: every hook is behind a nullable
/// AttributionEngine pointer (one predicted branch), and the hot path
/// never allocates (window publication, once per window, may).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "axi/transaction.hpp"
#include "axi/types.hpp"
#include "sim/clock_domain.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"

namespace fgqos::telemetry {

/// Why a transaction's line could not make progress.
enum class Cause : std::uint8_t {
  kFabricArb = 0,
  kDramBankConflict,
  kDramBusTurnaround,
  kDramRefresh,
  kSelf,
};

inline constexpr std::size_t kCauseCount = 5;

/// Stable short name ("fabric_arb", ...) used in exports.
[[nodiscard]] const char* cause_name(Cause c);

/// Sentinel for "no known occupant" (e.g. a bank never activated); the
/// engine folds it onto the victim itself.
inline constexpr axi::MasterId kNoOwner = 0xFFFF;

/// Sentinel for "no DRAM bank involved" (fabric-level waits, or the bank
/// dimension being disabled).
inline constexpr std::uint32_t kNoBank = 0xFFFF'FFFFu;

/// Per-wait bookkeeping embedded in the waiting component (one per AXI
/// port head, one per DRAM queue entry). POD; default state = closed.
struct WaitState {
  sim::TimePs start = 0;  ///< wait begin (independent measurement anchor)
  sim::TimePs last = 0;   ///< end of the last charged slice
  axi::MasterId last_aggressor = 0;
  std::uint32_t last_bank = kNoBank;  ///< bank the victim was waiting on
  Cause last_cause = Cause::kSelf;
  bool open = false;
};

/// The engine.
class AttributionEngine {
 public:
  /// One blame-matrix cell: stalled picoseconds plus the payload bytes
  /// whose delivery the stall delayed (credited to the cell that blocked
  /// the wait last).
  struct Cell {
    std::uint64_t stall_ps = 0;
    std::uint64_t bytes = 0;
  };

  /// One closed accounting window.
  struct WindowRecord {
    sim::TimePs start = 0;
    sim::TimePs end = 0;
    std::vector<Cell> cells;  ///< M * M * kCauseCount, victim-major
  };

  /// Called at each window rollover with the just-closed window.
  using WindowListener = std::function<void(const WindowRecord&)>;

  /// \param metrics registry the summary metrics are published into
  /// \param window_ps blame-matrix accounting window (> 0)
  AttributionEngine(MetricsRegistry& metrics, sim::TimePs window_ps);

  AttributionEngine(const AttributionEngine&) = delete;
  AttributionEngine& operator=(const AttributionEngine&) = delete;

  /// Registers master \p id under \p name. Ids must be dense from 0;
  /// call for every master before the simulation runs.
  void register_master(axi::MasterId id, std::string name);

  [[nodiscard]] std::size_t master_count() const { return names_.size(); }
  [[nodiscard]] const std::string& master_name(axi::MasterId id) const {
    return names_.at(id);
  }
  [[nodiscard]] sim::TimePs window_ps() const { return window_ps_; }

  void add_window_listener(WindowListener fn);

  /// With \p keep false, closed windows still reach the listeners and the
  /// trace but are not stored: windows() stays empty and the exports hold
  /// the totals alone. For runs that read only totals, where short windows
  /// would otherwise pile up a record per window.
  void keep_windows(bool keep) { keep_windows_ = keep; }

  /// Enables the per-bank blame dimension: charges carrying a bank id
  /// additionally accumulate into cumulative (victim, bank, cause) cells
  /// exported as `bank_total` CSV rows / `bank_totals` JSON and
  /// `attr.<victim>.bank.<b>_ps` metrics. Call after register_master(),
  /// before any charge. Off by default — all exports are byte-identical
  /// to the bank-less engine while disabled.
  void enable_bank_dimension(std::uint32_t banks);
  [[nodiscard]] bool bank_dimension_enabled() const { return banks_ > 0; }
  [[nodiscard]] std::uint32_t bank_count() const { return banks_; }

  /// Attaches the Chrome-trace sink: one counter track per victim
  /// (category "attr"), one series per cause, sampled at window ends.
  void set_trace(TraceWriter* writer);

  // --- hot path ----------------------------------------------------------

  /// Opens \p w at \p start (typically in the past: the instant the head
  /// became ready / the entry became visible).
  void begin_wait(WaitState& w, sim::TimePs start) {
    w.start = start;
    w.last = start;
    w.last_aggressor = kNoOwner;
    w.last_bank = kNoBank;
    w.last_cause = Cause::kSelf;
    w.open = true;
  }

  /// Charges the slice [w.last, now] of \p victim's open wait to
  /// (\p aggressor, \p cause) and remembers the blocker for the final
  /// slice. kNoOwner (or the victim itself for kFabricArb) folds to
  /// (victim, self). \p bank (DRAM bank the wait targets) feeds the
  /// optional bank dimension; kNoBank for fabric-level waits.
  void charge(WaitState& w, axi::MasterId victim, axi::MasterId aggressor,
              Cause cause, sim::TimePs now, axi::Transaction* txn,
              std::uint32_t bank = kNoBank);

  /// charge() for a component that may have slept, or left the span open,
  /// since the last charge; one call per wait per tick, with the cell
  /// classified on this tick. When that is the cell \p w stored and
  /// \p window_edge is false (see window_edge()), nothing is charged: the
  /// span stays open. Otherwise the span [w.last, prev] up to the
  /// previous clock edge \p prev goes to the stored cell (which the wake
  /// rules above keep valid), the rest to (\p aggressor, \p cause,
  /// \p bank).
  void charge_since(WaitState& w, axi::MasterId victim,
                    axi::MasterId aggressor, Cause cause, sim::TimePs prev,
                    sim::TimePs now, bool window_edge, axi::Transaction* txn,
                    std::uint32_t bank = kNoBank) {
    normalize(victim, aggressor, cause);
    if (!window_edge && aggressor == w.last_aggressor &&
        cause == w.last_cause && bank == w.last_bank) {
      return;
    }
    carry(w, victim, prev, txn);
    charge(w, victim, aggressor, cause, now, txn, bank);
  }

  /// Charges the span [w.last, \p upto] of \p victim's open wait to the
  /// cell stored by the last charge; nothing when w.last >= \p upto.
  void carry(WaitState& w, axi::MasterId victim, sim::TimePs upto,
             axi::Transaction* txn) {
    if (w.last < upto) {
      FGQOS_DEBUG_ASSERT(w.last_aggressor != kNoOwner,
                         "AttributionEngine: slept through a wait's first "
                         "cycle");
      charge(w, victim, w.last_aggressor, w.last_cause, upto, txn,
             w.last_bank);
    }
  }

  /// Registers a charging component's catch-up, once, when it is wired to
  /// this engine: a call that carry()s each of its open waits to the last
  /// edge it would have ticked by now had it ticked every cycle
  /// (Clocked::next_polled_edge()). It must stay callable while the
  /// engine settles, until remove_settler(\p owner).
  void add_settler(const void* owner, std::function<void()> fn);
  /// Drops \p owner's settler (a component detaching); no-op when none.
  void remove_settler(const void* owner);

  /// Runs every settler, so that reads between ticks see each stalled
  /// picosecond a per-cycle charger would have charged by now. finish()
  /// and publish_metrics() settle first; so must any mid-run reader of
  /// the totals (time-series samples).
  void settle();

  /// Window-boundary wake rule: the next edge of \p clk after edge \p c at
  /// which a component holding an open wait must charge it — its last edge
  /// at or before the next window boundary or, when that is \p c itself,
  /// the first edge after the boundary. Windows tile time from 0, so edge
  /// c is itself such an edge when window_edge(clk, c - 1) == c.
  [[nodiscard]] sim::Cycles window_edge(const sim::ClockDomain& clk,
                                        sim::Cycles c) const {
    const sim::Cycles last = boundary_edge(clk, c);
    return last > c ? last : c + 1;
  }

  /// One component's memo of window_edge() on its clock: the edges
  /// [lo, last] all lie in one window, and \c last is its last edge at or
  /// before the window's boundary. Empty (lo > last) until first used;
  /// reset it when the component attaches to an engine.
  struct EdgeCache {
    sim::Cycles lo = 1;
    sim::Cycles last = 0;
  };

  /// window_edge() answered from \p cache, which divides only when \p c
  /// leaves the cached range (once per window on a forward walk).
  [[nodiscard]] sim::Cycles window_edge(const sim::ClockDomain& clk,
                                        sim::Cycles c,
                                        EdgeCache& cache) const {
    if (c < cache.lo || c > cache.last) {
      cache.lo = c;
      cache.last = boundary_edge(clk, c);
    }
    return cache.last > c ? cache.last : c + 1;
  }

  /// Closes \p w at \p now: charges the final slice to the last observed
  /// blocker and credits \p bytes to that cell (only when the wait had
  /// nonzero length).
  void end_wait(WaitState& w, axi::MasterId victim, std::uint32_t bytes,
                sim::TimePs now, axi::Transaction* txn);

  /// Single-shot charge of the closed span [start, end] (e.g. time spent
  /// queued behind the victim's own earlier transactions).
  void charge_span(axi::MasterId victim, axi::MasterId aggressor, Cause cause,
                   sim::TimePs start, sim::TimePs end, axi::Transaction* txn);

  /// Records a conservation residual observed at transaction completion
  /// (|measured - charged|; 0 when the bookkeeping is sound).
  void note_residual(std::uint64_t ps) { residual_ps_ += ps; }

  // --- cold path ---------------------------------------------------------

  /// Publishes the final (partial) window. Call once, at end of run,
  /// before exporting. Idempotent for a given \p now.
  void finish(sim::TimePs now);

  [[nodiscard]] const std::vector<WindowRecord>& windows() const {
    return history_;
  }
  /// Cumulative cell (all windows + the open one).
  [[nodiscard]] const Cell& total(axi::MasterId victim, axi::MasterId aggressor,
                                  Cause cause) const {
    return totals_[index(victim, aggressor, cause)];
  }
  /// Total stall charged to \p victim across aggressors and causes.
  [[nodiscard]] std::uint64_t victim_stall_ps(axi::MasterId victim) const;
  /// Cumulative (victim, bank, cause) cell; bank dimension must be enabled.
  [[nodiscard]] const Cell& bank_total(axi::MasterId victim,
                                       std::uint32_t bank, Cause cause) const {
    return bank_totals_[bank_index(victim, bank, cause)];
  }
  /// Stall of \p victim on \p bank (all causes); 0 while disabled.
  [[nodiscard]] std::uint64_t bank_stall_ps(axi::MasterId victim,
                                            std::uint32_t bank) const;
  /// Stall of \p victim charged to \p aggressor (all causes).
  [[nodiscard]] std::uint64_t blame_ps(axi::MasterId victim,
                                       axi::MasterId aggressor) const;
  /// Stall of \p victim with \p cause (all aggressors).
  [[nodiscard]] std::uint64_t cause_ps(axi::MasterId victim, Cause cause) const;
  [[nodiscard]] std::uint64_t residual_ps() const { return residual_ps_; }

  /// Heaviest (aggressor, cause) cell of \p victim inside \p cells
  /// (a WindowRecord's or the cumulative matrix). Returns false when the
  /// victim has no charges.
  bool dominant(const std::vector<Cell>& cells, axi::MasterId victim,
                axi::MasterId& aggressor, Cause& cause,
                std::uint64_t& stall_ps) const;

  /// Writes the blame matrices as CSV. Schema:
  ///   scope,window_start_ps,window_end_ps,victim,aggressor,cause,stall_ps,bytes
  /// One row per nonzero cell, windows first then `total` rows. When
  /// \p row_prefix is nonempty it is prepended verbatim to every row
  /// (sweep tools add a leading point column); \p header controls the
  /// header line (which gets \p header_prefix prepended).
  void write_csv(std::ostream& os, bool header = true,
                 const std::string& row_prefix = "",
                 const std::string& header_prefix = "") const;
  void save_csv(const std::string& path) const;

  /// Writes one JSON object: masters, causes, window_ps, windows[],
  /// totals[], residual_ps.
  void write_json(std::ostream& os) const;
  void save_json(const std::string& path) const;

  /// Publishes the summary metrics into the registry:
  ///   attr.<victim>.stall_ps / attr.<victim>.cause.<cause>_ps /
  ///   attr.<victim>.from.<aggressor>_ps / telemetry.attribution.windows /
  ///   telemetry.attribution.residual_ps (gauge).
  void publish_metrics();

 private:
  [[nodiscard]] std::size_t index(axi::MasterId victim, axi::MasterId aggressor,
                                  Cause cause) const {
    return (static_cast<std::size_t>(victim) * names_.size() +
            aggressor) * kCauseCount +
           static_cast<std::size_t>(cause);
  }

  [[nodiscard]] std::size_t bank_index(axi::MasterId victim,
                                       std::uint32_t bank, Cause cause) const {
    return (static_cast<std::size_t>(victim) * banks_ + bank) * kCauseCount +
           static_cast<std::size_t>(cause);
  }

  /// Last edge of \p clk at or before the first window boundary at or
  /// after edge \p c. Every edge from \p c to it shares that boundary, as
  /// each lies less than one window before it.
  [[nodiscard]] sim::Cycles boundary_edge(const sim::ClockDomain& clk,
                                          sim::Cycles c) const {
    const sim::TimePs now = clk.edge_time(c);
    return clk.cycles_at((now + window_ps_ - 1) / window_ps_ * window_ps_);
  }

  /// Folds sentinel / self-blamed-arbitration charges onto (victim, self).
  void normalize(axi::MasterId victim, axi::MasterId& aggressor,
                 Cause& cause) const;
  void add(axi::MasterId victim, axi::MasterId aggressor, Cause cause,
           std::uint64_t ps, sim::TimePs at);
  /// Closes windows until \p at falls inside the open one.
  void roll_to(sim::TimePs at);
  void publish_window(sim::TimePs end);
  void write_cells(std::ostream& os, const std::vector<Cell>& cells,
                   const char* scope, sim::TimePs start, sim::TimePs end,
                   const std::string& row_prefix) const;

  MetricsRegistry& metrics_;
  sim::TimePs window_ps_;
  sim::TimePs window_start_ = 0;
  std::vector<std::string> names_;
  std::vector<Cell> window_cells_;   ///< open window, M*M*C
  std::vector<Cell> totals_;         ///< cumulative, M*M*C
  std::uint32_t banks_ = 0;          ///< bank dimension size (0 = disabled)
  std::vector<Cell> bank_totals_;    ///< cumulative, M*banks*C
  std::vector<WindowRecord> history_;
  bool keep_windows_ = true;
  std::uint64_t windows_closed_ = 0;
  std::vector<WindowListener> listeners_;
  std::vector<std::pair<const void*, std::function<void()>>> settlers_;
  std::uint64_t residual_ps_ = 0;
  bool finished_ = false;
  TraceWriter* trace_ = nullptr;
  std::vector<TrackId> tracks_;  ///< one per victim
};

}  // namespace fgqos::telemetry

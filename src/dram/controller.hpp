/// \file controller.hpp
/// \brief FR-FCFS DDR controller model.
///
/// Mid-fidelity model in the DRAMSim tradition: per-bank row state and
/// timing windows (tRCD/tRP/tRAS/tRC/tRRD/tFAW/tCCD/tRTP/tWR/tWTR/tRTW),
/// a shared command bus (one command per controller cycle), a shared data
/// bus with direction-turnaround penalties, periodic refresh, FR-FCFS
/// scheduling with a starvation guard, and write draining with
/// high/low watermarks.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "axi/interconnect.hpp"
#include "axi/transaction.hpp"
#include "dram/address_mapper.hpp"
#include "dram/bank.hpp"
#include "dram/bank_set.hpp"
#include "dram/timing.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/trace.hpp"

namespace fgqos::dram {

/// Row management policy after a CAS completes.
enum class PagePolicy : std::uint8_t {
  /// Leave the row open (bet on locality; conflicts pay PRE+ACT).
  kOpen,
  /// Auto-precharge after each CAS unless another visible hit to the same
  /// row waits in a direction being served (bet on randomness; every
  /// access pays ACT).
  kClosed,
};

/// One pending line request plus its decoded coordinates.
struct QueueEntry {
  axi::LineRequest line;
  Decoded where;
  sim::TimePs visible_at = 0;  ///< front-end pipeline delay
  std::uint64_t seq = 0;       ///< arrival order (FCFS tie-break)
  /// Queueing-delay blame bookkeeping (open only when attribution is on).
  telemetry::WaitState wait;
};

/// Controller-level knobs (timing lives in TimingConfig).
struct ControllerConfig {
  TimingConfig timing{};
  MappingPolicy mapping = MappingPolicy::kBankInterleaved;
  PagePolicy page_policy = PagePolicy::kOpen;
  std::size_t read_queue_depth = 32;
  std::size_t write_queue_depth = 32;
  /// Write-drain hysteresis (entries).
  std::size_t write_high_watermark = 24;
  std::size_t write_low_watermark = 8;
  /// Oldest-request age (controller cycles) beyond which row hits may no
  /// longer bypass it (FR-FCFS starvation guard).
  std::uint64_t starvation_cycles = 1200;
  /// Front-end pipeline latency from accept() to schedulability.
  sim::TimePs frontend_latency_ps = 20'000;  // 20 ns
  /// Fail hard (ConfigError) on a capacity-aliasing decode instead of
  /// counting it in AddressMapper::oob_decodes().
  bool strict_addressing = false;

  void validate() const;
};

/// Aggregate controller statistics.
struct ControllerStats {
  sim::Counter reads_serviced;
  sim::Counter writes_serviced;
  sim::Counter payload_bytes;    ///< useful bytes delivered
  sim::Counter bus_bytes;        ///< bytes moved on the data bus (bursts)
  sim::Counter activations;      ///< ACT commands (row misses)
  sim::Counter conflict_precharges;  ///< PRE issued to replace an open row
  sim::Counter refreshes;
  sim::Counter data_bus_busy_cycles;

  /// CAS issued to a row opened by an earlier request of the same stream.
  [[nodiscard]] std::uint64_t row_hits() const {
    const std::uint64_t cas = reads_serviced.value() + writes_serviced.value();
    const std::uint64_t acts = activations.value();
    return cas > acts ? cas - acts : 0;
  }
};

/// One command the controller put on its command bus.
struct IssuedCommand {
  enum class Kind : std::uint8_t { kAct, kPre, kRead, kWrite, kRefresh };
  Kind kind = Kind::kAct;
  Bank::Cycle cycle = 0;  ///< controller cycle of issue
  std::uint32_t bank = 0;  ///< unused for kRefresh
  /// kAct: the row opened; kRead/kWrite: the row accessed.
  std::uint64_t row = 0;
  /// kRead/kWrite: the row closes by itself once tRAS and tRTP/tWR allow.
  bool auto_precharge = false;
};

/// Receives every command a controller issues (an independent legality
/// checker, in tests).
class CommandObserver {
 public:
  virtual ~CommandObserver() = default;
  virtual void on_command(const IssuedCommand& cmd) = 0;
};

/// The memory controller. Accepts line requests from the interconnect and
/// reports each back through the ResponseSink at data-burst completion.
class Controller final : public sim::Clocked, public axi::SlaveIf {
 public:
  /// \param clk must have the same frequency as cfg.timing.clock_mhz.
  Controller(sim::Simulator& sim, const sim::ClockDomain& clk,
             ControllerConfig cfg, axi::ResponseSink& sink);

  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] const AddressMapper& mapper() const { return mapper_; }

  /// Bytes serviced for one master id (payload).
  [[nodiscard]] std::uint64_t master_bytes(axi::MasterId m) const;

  /// Payload bytes serviced for one (master, bank) pair. Always tracked;
  /// the Soc layer decides whether to publish them as metrics.
  [[nodiscard]] std::uint64_t bank_bytes(axi::MasterId m,
                                         std::uint32_t bank) const;
  /// CAS commands issued for one (master, bank) pair.
  [[nodiscard]] std::uint64_t bank_cas(axi::MasterId m,
                                       std::uint32_t bank) const;

  /// Measured data-bus utilisation in [0,1] over the whole run.
  [[nodiscard]] double bus_utilization(sim::TimePs elapsed_ps) const;

  /// Current queue occupancies (diagnostics).
  [[nodiscard]] std::size_t read_queue_size() const {
    return queues_[0].size;
  }
  [[nodiscard]] std::size_t write_queue_size() const {
    return queues_[1].size;
  }

  /// Attaches the Chrome-trace sink (nullptr detaches). Each CAS data
  /// burst becomes a duration event ("rd"/"wr") and the queue occupancies
  /// counter series on a track named \p track_name.
  void set_trace(telemetry::TraceWriter* writer, const std::string& track_name);

  /// Wires the interference-attribution engine (nullptr disables; the
  /// default). When enabled, every tick classifies why each visible queued
  /// line could not issue its CAS (bank conflict, bus turnaround /
  /// write-drain batching, refresh, scheduling) and blames the master
  /// occupying that resource. The controller naps as it does without
  /// attribution: a line's wait is charged in spans, one per blame cell,
  /// and the nap ends early at each cycle a waiting line's cell can change
  /// on a timer (the end of tRFC or of a turnaround window) and at each
  /// window boundary (see AttributionEngine's wake rules). Detaching
  /// (nullptr) also withdraws the controller's settler from the previous
  /// engine.
  void set_attribution(telemetry::AttributionEngine* engine);

  /// Reports every ACT, PRE, CAS and refresh to \p observer (nullptr
  /// detaches; the default).
  void set_command_observer(CommandObserver* observer) {
    cmd_observer_ = observer;
  }

  /// Fault seam: divides tREFI by \p divisor (>= 1), modelling a refresh
  /// storm (e.g. high-temperature 2x/4x refresh or a misbehaving
  /// controller). 1 restores the nominal schedule. Takes effect at the
  /// next refresh decision; an overdue refresh fires immediately.
  void set_refresh_interval_divisor(std::uint32_t divisor);
  [[nodiscard]] std::uint32_t refresh_interval_divisor() const {
    return refresh_divisor_;
  }

  // SlaveIf: every freed queue slot is reported through
  // ResponseSink::space_freed().
  [[nodiscard]] bool can_accept(const axi::LineRequest& line,
                                sim::TimePs now) const override;
  void accept(axi::LineRequest line, sim::TimePs now) override;

  // Clocked
  bool tick(sim::Cycles cycle) override;

 private:
  using Cycle = Bank::Cycle;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr Cycle kNever = ~Cycle{0};

  /// One queue slot: the entry plus its links in two intrusive lists, its
  /// queue's arrival order and, once visible, its (bank, direction) list.
  struct Slot {
    QueueEntry e;
    Cycle visible_cycle = 0;  ///< first controller cycle at which e is visible
    Cycle age_origin = 0;     ///< e.visible_at / period: starvation age origin
    std::uint32_t q_prev = kNil;
    std::uint32_t q_next = kNil;
    std::uint32_t b_prev = kNil;
    std::uint32_t b_next = kNil;
  };

  /// One direction's queue in arrival order. accept() times never decrease,
  /// so the visible entries are always a prefix; \c first_unindexed starts
  /// the suffix not yet linked into the per-bank lists.
  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t first_unindexed = kNil;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };

  /// Visible entries of one (bank, direction) in arrival order, with the
  /// number that hit the bank's open row and the oldest of those.
  struct BankList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t hits = 0;
    std::uint32_t oldest_hit = kNil;
  };

  struct BankIndex {
    std::array<BankList, 2> dir;  ///< [is_write]
  };

  /// Selection key of no command: above every real one.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  /// The command a bank's candidate is for.
  enum class Command : std::uint8_t {
    kAct,  ///< row closed
    kPre,  ///< row open, no visible entry hits it
    kCas,  ///< row open with visible hits
  };

  /// One bank's entry of the candidate table: what the bank would issue
  /// next, read off its lists and row state by candidate_of(). Only
  /// the shared limits (tRRD/tFAW, bank-group tRRD_L/tCCD_L, tCCD_S, the
  /// data bus and turnaround) are left for decide() to fold in.
  struct Candidate {
    Cycle earliest = 0;  ///< bank-local act_ready, pre_ready or cas_ready
    /// Per direction [is_write], the key (key_of()) of the entry the
    /// command is for: the oldest open-row hit (kCas), else the list head;
    /// kNoKey when there is none.
    std::array<std::uint64_t, 2> key{kNoKey, kNoKey};
    std::uint32_t group = 0;  ///< cached TimingConfig::group_of
    Command command = Command::kAct;
    bool operator==(const Candidate&) const = default;
  };

  /// Commands offered to one decision: the least key of a legal CAS and
  /// of a legal PRE/ACT, how many of each were legal, and the least ready
  /// cycle of an illegal one. Branch-free.
  struct Selection {
    std::uint64_t cas = kNoKey;
    std::uint64_t prep = kNoKey;
    std::uint32_t cas_legal = 0;
    std::uint32_t prep_legal = 0;
    std::uint32_t pre_legal = 0;  ///< the PREs among prep_legal
    Cycle next = kNever;

    void offer_cas(std::uint64_t key, Cycle ready, Cycle c) {
      cas_legal += fold(cas, key, ready, c);
    }
    void offer_prep(std::uint64_t key, Cycle ready, Cycle c, bool pre) {
      const std::uint32_t legal = fold(prep, key, ready, c);
      prep_legal += legal;
      pre_legal += legal & static_cast<std::uint32_t>(pre);
    }
    void merge(const Selection& o) {
      cas = std::min(cas, o.cas);
      prep = std::min(prep, o.prep);
      cas_legal += o.cas_legal;
      prep_legal += o.prep_legal;
      pre_legal += o.pre_legal;
      next = std::min(next, o.next);
    }

   private:
    /// Returns 1 when the command is legal at \p c, else 0.
    std::uint32_t fold(std::uint64_t& best, std::uint64_t key, Cycle ready,
                       Cycle c) {
      const std::uint64_t illegal =
          std::uint64_t{0} - static_cast<std::uint64_t>(ready > c);
      best = std::min(best, key | illegal);
      next = std::min(next, ready | ~illegal);
      return static_cast<std::uint32_t>(~illegal & 1);
    }
  };

  void do_refresh(Cycle c);
  void note_act(Cycle c, std::uint32_t group);
  /// Earliest CAS issue cycle for direction \p write given bus state.
  [[nodiscard]] Cycle dir_cas_ready(bool write) const;
  /// Issues the CAS: updates bank/bus state, schedules completion.
  /// \param auto_precharge close the row right after (closed-page policy).
  void issue_cas(QueueEntry entry, Cycle c, bool auto_precharge);
  /// Links every entry visible at \p now into its (bank, direction) list.
  void index_visible(sim::TimePs now);
  /// Unlinks slot \p idx from its queue and bank list and frees it.
  QueueEntry take(std::uint32_t idx);
  /// Recounts a bank's open-row hits (after ACT, PRE or refresh).
  void recount_hits(std::uint32_t bank);
  /// Visibility cycle of the oldest entry not yet indexed (kNever if none).
  [[nodiscard]] Cycle next_visible_cycle() const;
  /// Selection key of queue slot \p idx (kNoKey for kNil): its arrival
  /// seq above its bank index, so that keys order as seqs (which are
  /// unique) and the least key names its bank.
  [[nodiscard]] std::uint64_t key_of(std::uint32_t idx) const;
  [[nodiscard]] std::uint32_t bank_of_key(std::uint64_t key) const {
    return static_cast<std::uint32_t>(key & (cfg_.timing.banks - 1));
  }
  /// Bank \p bank's candidate, read off its lists and row state.
  [[nodiscard]] Candidate candidate_of(std::uint32_t bank) const;
  /// Debug cross-check: every listed bank's table entry is current (every
  /// change to a bank's lists or row state marked it dirty).
  [[nodiscard]] bool candidates_current() const;
  /// Write-drain hysteresis: the drain mode at the current queue sizes,
  /// coming from mode \p draining.
  [[nodiscard]] bool drain_mode(bool draining) const;
  /// The directions [is_write] a decision at cycle \p c (edge time \p now)
  /// serves in drain mode \p draining, aged queue heads included.
  [[nodiscard]] std::array<bool, 2> served_dirs(Cycle c, sim::TimePs now,
                                                bool draining) const;
  /// One scheduling cycle: refresh, drain/aging flags, then decide()
  /// unless the next-decision gate is closed. Returns true when the
  /// command bus was used (refresh or CAS). Reports the scan-direction
  /// decision through \p serve_reads / \p serve_writes so the attribution
  /// pass can classify drain exclusion.
  bool schedule(Cycle c, sim::TimePs now, bool& serve_reads,
                bool& serve_writes);
  /// After a tick that used no command: naps until the next cycle that can
  /// act or, if earlier, \p wake. Returns tick()'s keep-ticking result.
  bool nap(Cycle c, Cycle wake);
  /// Issues at most one command (CAS first, else PRE/ACT) chosen from the
  /// candidate table. Records in next_decision_ a cycle before which no
  /// command can become legal while the served directions stay as they
  /// are (0: decide again next cycle). Returns true when a CAS issued.
  bool decide(Cycle c, sim::TimePs now, bool serve_reads, bool serve_writes);
  /// Blame pass: classifies the visible waiting queue entries and hands
  /// each cell to AttributionEngine::charge_since() — on a window edge, or
  /// when a controller-wide input of a cell changed, every entry, else only
  /// those on banks marked in blame_dirty_. Returns the first cycle after
  /// \p c at which a cell changes on a timer or a window boundary needs a
  /// charge (kNever when nothing waits).
  Cycle attribution_pass(Cycle c, sim::TimePs now, bool serve_reads,
                         bool serve_writes);
  /// AttributionEngine settler: carries every visible wait to the last
  /// edge a per-cycle controller would have ticked by now.
  void settle_attribution();

  /// The controller-wide inputs of a blame cell, as one pass read them.
  struct BlameInputs {
    bool refresh_busy = false;          ///< c < refresh_busy_until_
    std::array<bool, 2> served{};       ///< [is_write]
    std::array<bool, 2> cas_blocked{};  ///< c < dir_cas_ready(), [is_write]
    axi::MasterId bus_owner = telemetry::kNoOwner;
    axi::MasterId read_block_owner = telemetry::kNoOwner;
    axi::MasterId write_block_owner = telemetry::kNoOwner;
    bool operator==(const BlameInputs&) const = default;
  };

  ControllerConfig cfg_;
  AddressMapper mapper_;
  axi::ResponseSink* sink_;
  std::uint32_t prof_tag_done_ = 0;  ///< host-profiler tag, dram.line_done
  std::vector<Bank> banks_;
  std::vector<BankIndex> index_;  ///< per bank
  /// Candidate table, per bank; an entry is current unless its bank is
  /// marked in cand_dirty_ (by index_visible(), take(), issue_cas() and
  /// recount_hits(), i.e. on a listing, CAS, ACT, PRE or refresh).
  std::vector<Candidate> cand_;
  BankSet cand_dirty_;
  unsigned bank_bits_ = 0;  ///< log2(banks): key_of()'s shift
  /// Bank sets, [is_write]: selection visits only banks whose list holds
  /// open-row hits (CAS) or is nonempty without hits in either direction
  /// (PRE/ACT).
  std::array<BankSet, 2> listed_;
  std::array<BankSet, 2> hit_banks_;
  std::vector<Slot> slots_;       ///< storage for both queues
  std::vector<std::uint32_t> free_slots_;
  std::array<Queue, 2> queues_;   ///< [is_write]
  std::uint64_t arrival_seq_ = 0;
  sim::TimePs last_accept_ = 0;
  bool draining_writes_ = false;
  /// Next-decision gate: until cycle next_decision_, with the served
  /// directions unchanged, no command can become legal.
  Cycle next_decision_ = 0;
  bool gate_serve_reads_ = true;
  bool gate_serve_writes_ = true;
  /// Asleep with work queued (the nap in nap()).
  bool napping_ = false;

  // Global channel state (absolute controller cycles).
  Cycle next_act_any_ = 0;                 ///< tRRD_S
  std::vector<Cycle> next_act_group_;      ///< tRRD_L, per bank group
  std::array<Cycle, 4> act_history_{};     ///< tFAW window (ring)
  std::uint64_t act_count_ = 0;            ///< ACTs issued
  Cycle next_cas_any_ = 0;                 ///< tCCD_S
  std::vector<Cycle> next_cas_group_;      ///< tCCD_L, per bank group
  Cycle next_read_cas_ = 0;
  Cycle next_write_cas_ = 0;
  Cycle data_bus_free_ = 0;
  Cycle next_refresh_ = 0;
  std::uint32_t refresh_divisor_ = 1;  ///< fault seam: tREFI / divisor

  ControllerStats stats_;
  std::vector<std::uint64_t> master_bytes_;
  // Per-(master, bank) accounting, flattened [m * banks + bank]; grown on
  // demand as new master ids appear.
  std::vector<std::uint64_t> bank_bytes_;
  std::vector<std::uint64_t> bank_cas_;

  telemetry::TraceWriter* trace_ = nullptr;
  telemetry::TrackId track_;
  CommandObserver* cmd_observer_ = nullptr;

  // Interference attribution (all state dormant while attr_ == nullptr).
  telemetry::AttributionEngine* attr_ = nullptr;
  std::vector<axi::MasterId> bank_owner_;  ///< master of each bank's last ACT
  axi::MasterId bus_owner_ = telemetry::kNoOwner;  ///< last CAS issuer
  /// Masters whose CAS pushed the opposite direction's turnaround window.
  axi::MasterId read_block_owner_ = telemetry::kNoOwner;   ///< last writer
  axi::MasterId write_block_owner_ = telemetry::kNoOwner;  ///< last reader
  Cycle refresh_busy_until_ = 0;  ///< tRFC window of the last refresh
  BlameInputs blame_inputs_;         ///< as the last pass read them
  bool blame_inputs_valid_ = false;  ///< false: the next pass visits all
  /// Banks whose row or owner changed, or that listed a line, since the
  /// last pass (recount_hits(), index_visible()); one bit per bank.
  BankSet blame_dirty_;
  telemetry::AttributionEngine::EdgeCache edge_cache_;
};

}  // namespace fgqos::dram

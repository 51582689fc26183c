#include "dram/controller.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::dram {

void ControllerConfig::validate() const {
  timing.validate();
  config_check(read_queue_depth > 0 && write_queue_depth > 0,
               "ControllerConfig: queue depths must be > 0");
  config_check(write_high_watermark <= write_queue_depth,
               "ControllerConfig: high watermark exceeds queue depth");
  config_check(write_low_watermark < write_high_watermark,
               "ControllerConfig: watermarks must satisfy low < high");
  config_check(starvation_cycles > 0,
               "ControllerConfig: starvation_cycles must be > 0");
}

Controller::Controller(sim::Simulator& sim, const sim::ClockDomain& clk,
                       ControllerConfig cfg, axi::ResponseSink& sink)
    : sim::Clocked(sim, clk, "dram"),
      cfg_(std::move(cfg)),
      mapper_(cfg_.timing, cfg_.mapping, cfg_.strict_addressing),
      sink_(&sink),
      banks_(cfg_.timing.banks),
      index_(cfg_.timing.banks),
      cand_(cfg_.timing.banks),
      cand_dirty_(cfg_.timing.banks),
      listed_{BankSet(cfg_.timing.banks), BankSet(cfg_.timing.banks)},
      hit_banks_{BankSet(cfg_.timing.banks), BankSet(cfg_.timing.banks)},
      blame_dirty_(cfg_.timing.banks) {
  cfg_.validate();
  for (std::uint32_t b = 0; b < cfg_.timing.banks; ++b) {
    cand_[b].group = cfg_.timing.group_of(b);
  }
  bank_bits_ = static_cast<unsigned>(std::countr_zero(cfg_.timing.banks));
  queues_[0].capacity = cfg_.read_queue_depth;
  queues_[1].capacity = cfg_.write_queue_depth;
  slots_.resize(cfg_.read_queue_depth + cfg_.write_queue_depth);
  free_slots_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  next_act_group_.assign(cfg_.timing.bank_groups, 0);
  next_cas_group_.assign(cfg_.timing.bank_groups, 0);
  config_check(clk.period_ps() == cfg_.timing.period_ps(),
               "Controller: clock domain does not match timing.clock_mhz");
  next_refresh_ = cfg_.timing.tREFI;
  prof_tag_done_ = sim.profile_tag("dram.line_done");
}

std::uint64_t Controller::master_bytes(axi::MasterId m) const {
  if (m >= master_bytes_.size()) {
    return 0;
  }
  return master_bytes_[m];
}

std::uint64_t Controller::bank_bytes(axi::MasterId m,
                                     std::uint32_t bank) const {
  const std::size_t idx =
      static_cast<std::size_t>(m) * cfg_.timing.banks + bank;
  return idx < bank_bytes_.size() ? bank_bytes_[idx] : 0;
}

std::uint64_t Controller::bank_cas(axi::MasterId m, std::uint32_t bank) const {
  const std::size_t idx =
      static_cast<std::size_t>(m) * cfg_.timing.banks + bank;
  return idx < bank_cas_.size() ? bank_cas_[idx] : 0;
}

double Controller::bus_utilization(sim::TimePs elapsed_ps) const {
  if (elapsed_ps == 0) {
    return 0.0;
  }
  const double busy_ps =
      static_cast<double>(stats_.data_bus_busy_cycles.value()) *
      static_cast<double>(cfg_.timing.period_ps());
  return busy_ps / static_cast<double>(elapsed_ps);
}

bool Controller::can_accept(const axi::LineRequest& line,
                            sim::TimePs /*now*/) const {
  const Queue& q = queues_[line.is_write ? 1 : 0];
  return q.size < q.capacity;
}

void Controller::set_trace(telemetry::TraceWriter* writer,
                           const std::string& track_name) {
  trace_ = writer;
  track_ = telemetry::TrackId{};
  if (trace_ != nullptr) {
    track_ = trace_->track(telemetry::Cat::kDram, track_name);
    if (!track_.valid()) {
      trace_ = nullptr;  // dram category filtered out
    }
  }
}

void Controller::accept(axi::LineRequest line, sim::TimePs now) {
  FGQOS_ASSERT(line.bytes <= cfg_.timing.burst_bytes,
               "Controller: line larger than one burst");
  // Non-decreasing accept times keep each queue's visible entries a prefix
  // of its arrival order, which the per-bank index relies on.
  FGQOS_ASSERT(now >= last_accept_, "Controller: accept time went backwards");
  last_accept_ = now;
  Queue& q = queues_[line.is_write ? 1 : 0];
  FGQOS_ASSERT(q.size < q.capacity, "Controller: accept on a full queue");
  if (line.txn != nullptr && line.txn->dram_enqueued == 0) {
    line.txn->dram_enqueued = now;
  }
  QueueEntry e;
  e.where = mapper_.decode(line.addr);
  e.visible_at = now + cfg_.frontend_latency_ps;
  e.seq = ++arrival_seq_;
  e.line = line;
  if (attr_ != nullptr) {
    // The line's queueing wait starts once the front-end pipeline makes it
    // schedulable; classified by attribution_pass() on every tick from
    // then on, charged in spans, closed at CAS issue.
    attr_->begin_wait(e.wait, e.visible_at);
  }
  const sim::TimePs visible_at = e.visible_at;
  const std::uint32_t idx = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[idx];
  s.e = std::move(e);
  s.visible_cycle = clock().edge_index_at_or_after(visible_at);
  s.age_origin = visible_at / clock().period_ps();
  s.q_prev = q.tail;
  s.q_next = kNil;
  (q.tail == kNil ? q.head : slots_[q.tail].q_next) = idx;
  q.tail = idx;
  if (q.first_unindexed == kNil) {
    q.first_unindexed = idx;
  }
  ++q.size;
  // Later arrivals never become visible earlier, so this is exact.
  next_decision_ = std::min(next_decision_, s.visible_cycle);
  if (napping_) {
    // The new queue size may flip the drain and served-direction flags,
    // which the next tick evaluates.
    wake_as_polled();
  } else {
    wake_at(visible_at);
  }
}

void Controller::do_refresh(Cycle c) {
  const Cycle ready = c + cfg_.timing.tRFC;
  for (std::uint32_t b = 0; b < banks_.size(); ++b) {
    banks_[b].refresh_block(ready);
    recount_hits(b);
  }
  next_decision_ = 0;
  if (attr_ != nullptr) {
    refresh_busy_until_ = ready;
  }
  stats_.refreshes.add();
  note_busy_tick();
  if (cmd_observer_ != nullptr) {
    cmd_observer_->on_command({IssuedCommand::Kind::kRefresh, c});
  }
  // Catch up the schedule (idle periods may have skipped several tREFI
  // intervals; those refreshes happened while no requests were pending and
  // carry no modelled cost).
  const Cycle interval =
      std::max<Cycle>(1, cfg_.timing.tREFI / refresh_divisor_);
  while (next_refresh_ <= c) {
    next_refresh_ += interval;
  }
}

void Controller::set_refresh_interval_divisor(std::uint32_t divisor) {
  refresh_divisor_ = std::max<std::uint32_t>(1, divisor);
  // A shortened interval must take effect now, not after the previously
  // scheduled (nominal-length) gap elapses.
  const Cycle interval =
      std::max<Cycle>(1, cfg_.timing.tREFI / refresh_divisor_);
  const Cycle c = clock().edge_index_at_or_after(simulator().now());
  next_refresh_ = std::min(next_refresh_, c + interval);
  if (napping_) {
    wake_at(clock().edge_time(next_refresh_));
  }
}

void Controller::note_act(Cycle c, std::uint32_t group) {
  next_act_any_ = c + cfg_.timing.tRRD_S;
  next_act_group_[group] =
      std::max(next_act_group_[group], c + cfg_.timing.tRRD_L);
  // A ring of the last four ACTs: once four have issued, the next slot to
  // overwrite holds the oldest of them.
  act_history_[act_count_ % act_history_.size()] = c;
  ++act_count_;
}

Controller::Cycle Controller::dir_cas_ready(bool write) const {
  return write ? next_write_cas_ : next_read_cas_;
}

void Controller::issue_cas(QueueEntry entry, Cycle c, bool auto_precharge) {
  const TimingConfig& t = cfg_.timing;
  const bool is_write = entry.line.is_write;
  Bank& b = banks_[entry.where.bank];
  const std::uint32_t group = cand_[entry.where.bank].group;
  cand_dirty_.set(entry.where.bank);  // pre_ready moves
  const Cycle data_start = c + (is_write ? t.tCWL : t.tCL);
  const Cycle data_end = data_start + t.burst_cycles();
  data_bus_free_ = data_end;
  stats_.data_bus_busy_cycles.add(t.burst_cycles());
  next_cas_any_ = std::max(next_cas_any_, c + t.tCCD_S);
  next_cas_group_[group] =
      std::max(next_cas_group_[group], c + t.tCCD_L);
  if (is_write) {
    b.write_cas(data_end, t.tWR);
    // Write -> read turnaround.
    next_read_cas_ = std::max(next_read_cas_, data_end + t.tWTR);
    stats_.writes_serviced.add();
  } else {
    b.read_cas(c, t.tRTP);
    // Read -> write turnaround: the write CAS must not start its burst
    // before the read burst has left the bus plus tRTW.
    const Cycle wr_earliest = data_end + t.tRTW;
    next_write_cas_ = std::max(
        next_write_cas_, wr_earliest > t.tCWL ? wr_earliest - t.tCWL : 0);
    stats_.reads_serviced.add();
  }
  if (cmd_observer_ != nullptr) {
    cmd_observer_->on_command(
        {is_write ? IssuedCommand::Kind::kWrite : IssuedCommand::Kind::kRead,
         c, entry.where.bank, entry.where.row, auto_precharge});
  }
  if (auto_precharge) {
    // CAS-with-AP: the row closes by itself once tRTP/tWR allows; model
    // as a precharge effective at the bank's earliest legal PRE cycle.
    b.precharge(b.pre_ready(), t.tRP);
    recount_hits(entry.where.bank);
  }
  stats_.payload_bytes.add(entry.line.bytes);
  stats_.bus_bytes.add(t.burst_bytes);
  const axi::MasterId m = entry.line.txn->master;
  if (m >= master_bytes_.size()) {
    master_bytes_.resize(m + 1, 0);
  }
  master_bytes_[m] += entry.line.bytes;
  const std::size_t bank_idx =
      static_cast<std::size_t>(m) * t.banks + entry.where.bank;
  if (bank_idx >= bank_bytes_.size()) {
    bank_bytes_.resize(bank_idx + 1, 0);
    bank_cas_.resize(bank_idx + 1, 0);
  }
  bank_bytes_[bank_idx] += entry.line.bytes;
  bank_cas_[bank_idx] += 1;
  if (attr_ != nullptr) {
    if (entry.wait.open) {
      const sim::TimePs now_ps = simulator().now();
      attr_->end_wait(entry.wait, m, entry.line.bytes, now_ps,
                      entry.line.txn);
      entry.line.txn->attr_measured_ps += now_ps - entry.visible_at;
    }
    // This CAS now occupies the shared resources: remember who to blame
    // for the bus, and for the direction-turnaround window it just pushed.
    bus_owner_ = m;
    if (is_write) {
      read_block_owner_ = m;  // tWTR holds reads back
    } else {
      write_block_owner_ = m;  // tRTW holds writes back
    }
  }

  const sim::TimePs data_start_ps = data_start * clock().period_ps();
  const sim::TimePs done_ps = data_end * clock().period_ps();
  if (axi::Transaction* txn = entry.line.txn; txn != nullptr) {
    if (txn->dram_service_start == 0) {
      txn->dram_service_start = data_start_ps;
    }
    if (done_ps > txn->dram_service_end) {
      txn->dram_service_end = done_ps;
    }
  }
  if (trace_ != nullptr) {
    trace_->complete(track_, is_write ? "wr" : "rd", data_start_ps,
                     done_ps - data_start_ps);
    const sim::TimePs now = simulator().now();
    trace_->counter(track_, "read_q", now,
                    static_cast<double>(queues_[0].size));
    trace_->counter(track_, "write_q", now,
                    static_cast<double>(queues_[1].size));
  }
  axi::ResponseSink* sink = sink_;
  const axi::LineRequest line = entry.line;
  simulator().schedule_at(
      done_ps, [sink, line, done_ps]() { sink->line_done(line, done_ps); },
      prof_tag_done_);
}

void Controller::index_visible(sim::TimePs now) {
  for (std::size_t w = 0; w < queues_.size(); ++w) {
    Queue& q = queues_[w];
    while (q.first_unindexed != kNil &&
           slots_[q.first_unindexed].e.visible_at <= now) {
      const std::uint32_t idx = q.first_unindexed;
      Slot& s = slots_[idx];
      BankList& l = index_[s.e.where.bank].dir[w];
      s.b_prev = l.tail;
      s.b_next = kNil;
      (l.tail == kNil ? l.head : slots_[l.tail].b_next) = idx;
      l.tail = idx;
      listed_[w].set(s.e.where.bank);
      cand_dirty_.set(s.e.where.bank);
      blame_dirty_.set(s.e.where.bank);
      if (banks_[s.e.where.bank].row_hit(s.e.where.row)) {
        ++l.hits;
        if (l.oldest_hit == kNil) {
          l.oldest_hit = idx;
          hit_banks_[w].set(s.e.where.bank);
        }
      }
      q.first_unindexed = s.q_next;
    }
  }
}

QueueEntry Controller::take(std::uint32_t idx) {
  Slot& s = slots_[idx];
  const std::size_t w = s.e.line.is_write ? 1 : 0;
  Queue& q = queues_[w];
  (s.q_prev == kNil ? q.head : slots_[s.q_prev].q_next) = s.q_next;
  (s.q_next == kNil ? q.tail : slots_[s.q_next].q_prev) = s.q_prev;
  --q.size;
  // Only issued (hence indexed, row-hitting) entries are taken.
  const Bank& b = banks_[s.e.where.bank];
  BankList& l = index_[s.e.where.bank].dir[w];
  (s.b_prev == kNil ? l.head : slots_[s.b_prev].b_next) = s.b_next;
  (s.b_next == kNil ? l.tail : slots_[s.b_next].b_prev) = s.b_prev;
  listed_[w].set(s.e.where.bank, l.head != kNil);
  cand_dirty_.set(s.e.where.bank);
  --l.hits;
  hit_banks_[w].set(s.e.where.bank, l.hits > 0);
  if (l.oldest_hit == idx) {
    l.oldest_hit = kNil;
    for (std::uint32_t i = s.b_next; l.hits > 0 && i != kNil;
         i = slots_[i].b_next) {
      if (b.row_hit(slots_[i].e.where.row)) {
        l.oldest_hit = i;
        break;
      }
    }
  }
  free_slots_.push_back(idx);
  sink_->space_freed();
  return std::move(s.e);
}

void Controller::recount_hits(std::uint32_t bank) {
  const Bank& b = banks_[bank];
  cand_dirty_.set(bank);
  blame_dirty_.set(bank);
  for (std::size_t w = 0; w < 2; ++w) {
    BankList& l = index_[bank].dir[w];
    l.hits = 0;
    l.oldest_hit = kNil;
    if (b.row_open()) {
      for (std::uint32_t i = l.head; i != kNil; i = slots_[i].b_next) {
        if (b.row_hit(slots_[i].e.where.row)) {
          ++l.hits;
          if (l.oldest_hit == kNil) {
            l.oldest_hit = i;
          }
        }
      }
    }
    hit_banks_[w].set(bank, l.hits > 0);
  }
}

std::uint64_t Controller::key_of(std::uint32_t idx) const {
  if (idx == kNil) {
    return kNoKey;
  }
  const QueueEntry& e = slots_[idx].e;
  return e.seq << bank_bits_ | e.where.bank;
}

Controller::Candidate Controller::candidate_of(std::uint32_t bank) const {
  const Bank& b = banks_[bank];
  const BankIndex& bi = index_[bank];
  Candidate k{b.act_ready(),
              {key_of(bi.dir[0].head), key_of(bi.dir[1].head)},
              cand_[bank].group,
              Command::kAct};
  if (b.row_open() && bi.dir[0].hits + bi.dir[1].hits == 0) {
    k.command = Command::kPre;
    k.earliest = b.pre_ready();
  } else if (b.row_open()) {
    k.command = Command::kCas;
    k.earliest = b.cas_ready();
    k.key = {key_of(bi.dir[0].oldest_hit), key_of(bi.dir[1].oldest_hit)};
  }
  return k;
}

bool Controller::candidates_current() const {
  bool current = true;
  for (std::size_t word = 0; word < listed_[0].words(); ++word) {
    BankSet::for_each_bit(
        word, listed_[0].word(word) | listed_[1].word(word),
        [&](std::uint32_t bank) {
          current = current && cand_[bank] == candidate_of(bank);
        });
  }
  return current;
}

Controller::Cycle Controller::next_visible_cycle() const {
  Cycle next = kNever;
  for (const Queue& q : queues_) {
    if (q.first_unindexed != kNil) {
      next = std::min(next, slots_[q.first_unindexed].visible_cycle);
    }
  }
  return next;
}

bool Controller::tick(sim::Cycles cycle) {
  napping_ = false;
  const sim::TimePs now = simulator().now();
  const Cycle c = cycle;
  // The attribution pass runs between scheduling and the nap: on every
  // tick, including the refresh and CAS-issued ones, and early enough to
  // cut the nap short at the next cycle a waiting line's blame cell
  // changes on a timer.
  bool serve_reads = true;
  bool serve_writes = true;
  const bool bus_used = schedule(c, now, serve_reads, serve_writes);
  const Cycle cell_change =
      attr_ != nullptr ? attribution_pass(c, now, serve_reads, serve_writes)
                       : kNever;
  return bus_used || nap(c, cell_change);
}

bool Controller::schedule(Cycle c, sim::TimePs now, bool& serve_reads,
                          bool& serve_writes) {
  if (c >= next_refresh_) {
    do_refresh(c);
    return true;  // refresh occupies the command bus this cycle
  }

  draining_writes_ = drain_mode(draining_writes_);
  const std::array<bool, 2> served = served_dirs(c, now, draining_writes_);
  serve_reads = served[0];
  serve_writes = served[1];

  // Next-decision gate: with the served directions unchanged, nothing can
  // issue before next_decision_ (every legality test is `c >= X`).
  if (c >= next_decision_ || serve_reads != gate_serve_reads_ ||
      serve_writes != gate_serve_writes_) {
    gate_serve_reads_ = serve_reads;
    gate_serve_writes_ = serve_writes;
    return decide(c, now, serve_reads, serve_writes);
  }
  return false;
}

bool Controller::drain_mode(bool draining) const {
  // Write-drain hysteresis.
  if (queues_[1].size >= cfg_.write_high_watermark) {
    return true;
  }
  return draining && queues_[1].size > cfg_.write_low_watermark;
}

std::array<bool, 2> Controller::served_dirs(Cycle c, sim::TimePs now,
                                            bool draining) const {
  const Queue& rq = queues_[0];
  const Queue& wq = queues_[1];
  // Aging in both directions bounds worst-case service:
  //  * a sustained write flood can hold the drain above the low watermark
  //    forever — aged reads re-enter the scan;
  //  * a sustained read stream can keep the write queue just below the
  //    high watermark forever (and deadlock masters waiting on write
  //    completions) — aged writes re-enter the scan.
  const auto front_aged = [&](const Queue& q) {
    if (q.head == kNil) {
      return false;
    }
    const Slot& front = slots_[q.head];
    return front.e.visible_at <= now &&
           c >= front.age_origin + cfg_.starvation_cycles;
  };
  return {!draining || wq.size == 0 || front_aged(rq),
          draining || rq.size == 0 || front_aged(wq)};
}

bool Controller::nap(Cycle c, Cycle wake) {
  if (queues_[0].size == 0 && queues_[1].size == 0) {
    return false;  // accept() wakes the controller for the next arrival
  }
  // Nap: until the first cycle at which a command can become legal, the
  // refresh falls due, a queue head ages into the scan or (\p wake) a
  // waiting line's blame cell changes, every tick would schedule nothing
  // and charge nothing new. accept() and set_refresh_interval_divisor()
  // cut the nap short.
  wake = std::min({wake, next_decision_, next_refresh_});
  for (const Queue& q : queues_) {
    if (q.head != kNil) {
      const Cycle aged = slots_[q.head].age_origin + cfg_.starvation_cycles;
      if (aged > c) {
        wake = std::min(wake, aged);
      }
    }
  }
  if (wake <= c + 1) {
    return true;
  }
  napping_ = true;
  wake_at(clock().edge_time(wake));
  return false;
}

bool Controller::decide(Cycle c, sim::TimePs now, bool serve_reads,
                        bool serve_writes) {
  const TimingConfig& t = cfg_.timing;
  index_visible(now);
  cand_dirty_.for_each(
      [&](std::uint32_t bank) { cand_[bank] = candidate_of(bank); });
  cand_dirty_.clear();
  FGQOS_DEBUG_ASSERT(candidates_current(),
                     "Controller: candidate table out of date");
  const std::array<bool, 2> served{serve_reads, serve_writes};
  Cycle next = next_visible_cycle();

  // The oldest served visible entry is a queue head: visible entries are a
  // prefix of each queue.
  std::uint32_t oldest = kNil;
  for (std::size_t w = 0; w < 2; ++w) {
    const std::uint32_t h = queues_[w].head;
    if (served[w] && h != kNil && slots_[h].e.visible_at <= now &&
        (oldest == kNil || slots_[h].e.seq < slots_[oldest].e.seq)) {
      oldest = h;
    }
  }
  if (oldest == kNil) {
    // No served entry is listed, so no bank offers a command.
    next_decision_ = next;
    return false;
  }

  // Starvation guard: when the oldest visible request has waited too long,
  // suspend row-hit bypassing on its bank (other banks keep full FR-FCFS
  // parallelism, so throughput is preserved while the oldest request's
  // service is bounded). While starving, CAS in the opposite bus direction
  // is also held back — otherwise a continuous same-direction stream
  // pushes the turnaround window (next_read/write_cas) forward forever and
  // the starving request never becomes issuable (write livelock).
  const Slot& os = slots_[oldest];
  const Cycle oldest_age = c - std::min<Cycle>(c, os.age_origin);
  const bool starving = oldest_age > cfg_.starvation_cycles;
  const std::uint32_t starving_bank = starving ? os.e.where.bank : kNil;
  const std::size_t starving_dir = os.e.line.is_write ? 1 : 0;
  if (!starving) {
    next = std::min(next, os.age_origin + cfg_.starvation_cycles + 1);
  }

  // The shared limits, folded into each candidate as maxima. A direction
  // that may not issue CAS gets kNever.
  const auto act_ready_any = [&] {
    const Cycle faw_ready =
        act_count_ >= act_history_.size()
            ? act_history_[act_count_ % act_history_.size()] + t.tFAW
            : 0;
    return std::max(next_act_any_, faw_ready);
  };
  std::array<Cycle, 2> cas_dir_ready{};
  const auto cas_dirs_ready = [&] {
    for (std::size_t w = 0; w < 2; ++w) {
      const Cycle latency = w != 0 ? t.tCWL : t.tCL;
      cas_dir_ready[w] =
          served[w] && (!starving || w == starving_dir)
              ? std::max({dir_cas_ready(w != 0), next_cas_any_,
                          data_bus_free_ > latency ? data_bus_free_ - latency
                                                   : 0})
              : kNever;
    }
  };
  Cycle act_any = act_ready_any();
  cas_dirs_ready();
  const std::array<std::uint64_t, 2> unserved{served[0] ? 0 : kNoKey,
                                              served[1] ? 0 : kNoKey};
  // A bank whose row holds visible hits offers a CAS for each direction's
  // oldest hit; any other bank a PRE or ACT for its oldest served entry.
  const auto cas_ready = [&](const Candidate& k, std::size_t w) {
    return std::max({k.earliest, cas_dir_ready[w], next_cas_group_[k.group]});
  };
  const auto prep_ready = [&](const Candidate& k) {
    const Cycle act_mask =
        Cycle{0} - static_cast<Cycle>(k.command == Command::kAct);
    return std::max(k.earliest,
                    std::max(act_any, next_act_group_[k.group]) & act_mask);
  };
  const auto offer_prep = [&](Selection& sel, const Candidate& k) {
    sel.offer_prep(std::min(k.key[0] | unserved[0], k.key[1] | unserved[1]),
                   prep_ready(k), c, k.command == Command::kPre);
  };
  const auto offer_bank = [&](const Candidate& k) {
    Selection one;
    if (k.command != Command::kCas) {
      offer_prep(one, k);
      return one;
    }
    for (std::size_t w = 0; w < 2; ++w) {
      if (k.key[w] != kNoKey) {
        one.offer_cas(k.key[w], cas_ready(k, w), c);
      }
    }
    return one;
  };
  // The starving bank's candidate as the guard sees it: only the starving
  // entry may issue a CAS. If it misses the open row, first-ready hit
  // protection is off there and the bank offers a PRE for it.
  const std::uint64_t starving_key = key_of(oldest);
  const auto starving_candidate = [&] {
    Candidate k = cand_[starving_bank];
    if (k.command == Command::kCas && k.key[starving_dir] != starving_key) {
      k.command = Command::kPre;
      k.earliest = banks_[starving_bank].pre_ready();
      k.key = {kNoKey, kNoKey};
      k.key[starving_dir] = starving_key;
    }
    return k;
  };

  // Listed banks with hits are exactly the kCas entries. The starving bank
  // is offered on its own.
  Selection sel;
  sel.next = next;
  const std::size_t starving_word = starving ? starving_bank / 64 : kNil;
  const std::uint64_t starving_bit =
      starving ? std::uint64_t{1} << (starving_bank % 64) : 0;
  for (std::size_t word = 0; word < listed_[0].words(); ++word) {
    const std::uint64_t keep =
        word == starving_word ? ~starving_bit : ~std::uint64_t{0};
    for (std::size_t w = 0; w < 2; ++w) {
      if (cas_dir_ready[w] == kNever) {
        continue;
      }
      BankSet::for_each_bit(
          word, hit_banks_[w].word(word) & keep, [&](std::uint32_t bank) {
            const Candidate& k = cand_[bank];
            sel.offer_cas(k.key[w], cas_ready(k, w), c);
          });
    }
    const std::uint64_t listed = (serve_reads ? listed_[0].word(word) : 0) |
                                 (serve_writes ? listed_[1].word(word) : 0);
    BankSet::for_each_bit(
        word,
        listed & ~(hit_banks_[0].word(word) | hit_banks_[1].word(word)) & keep,
        [&](std::uint32_t bank) { offer_prep(sel, cand_[bank]); });
  }
  if (starving) {
    sel.merge(offer_bank(starving_candidate()));
  }

  // Issue the winner: the oldest legal CAS, else the oldest legal PRE/ACT.
  std::uint32_t bank = kNil;
  Command issued = Command::kCas;
  if (sel.cas != kNoKey) {
    // Closed-page: auto-precharge unless another served visible hit wants
    // the row (the issuing entry itself is one of them).
    bank = bank_of_key(sel.cas);
    const BankIndex& bi = index_[bank];
    const std::size_t w = cand_[bank].key[0] == sel.cas ? 0 : 1;
    const std::uint32_t served_hits = (serve_reads ? bi.dir[0].hits : 0) +
                                      (serve_writes ? bi.dir[1].hits : 0);
    const bool auto_pre =
        cfg_.page_policy == PagePolicy::kClosed && served_hits <= 1;
    issue_cas(take(bi.dir[w].oldest_hit), c, auto_pre);
  } else if (sel.prep != kNoKey) {
    bank = bank_of_key(sel.prep);
    const BankIndex& bi = index_[bank];
    const QueueEntry& pe =
        slots_[key_of(bi.dir[0].head) == sel.prep ? bi.dir[0].head
                                                   : bi.dir[1].head]
            .e;
    Bank& b = banks_[bank];
    if (!b.row_open()) {
      issued = Command::kAct;
      b.activate(pe.where.row, c, t.tRCD, t.tRAS, t.tRC);
      note_act(c, cand_[bank].group);
      if (attr_ != nullptr) {
        bank_owner_[bank] = pe.line.txn->master;
      }
      stats_.activations.add();
    } else {
      issued = Command::kPre;
      b.precharge(c, t.tRP);
      stats_.conflict_precharges.add();
    }
    if (cmd_observer_ != nullptr) {
      const bool act = issued == Command::kAct;
      cmd_observer_->on_command(
          {act ? IssuedCommand::Kind::kAct : IssuedCommand::Kind::kPre, c,
           bank, act ? pe.where.row : 0});
    }
    recount_hits(bank);
  } else {
    next_decision_ = sel.next;
    return false;
  }
  note_busy_tick();
  const bool cas_issued = issued == Command::kCas;

  // The next decision. The command changed only its own bank's candidate
  // and raised shared limits, so every illegal offer's ready cycle is
  // still a lower bound. A legal command that lost stays legal unless the
  // command's own shared limit blocks it: an ACT blocks every ACT until
  // act_ready_any(), a CAS every CAS until its direction's cas_dir_ready.
  // After a CAS, also decide next cycle when the guard or the served
  // directions may have moved with the queue sizes and heads.
  bool decide_next = false;
  if (cas_issued) {
    decide_next = sel.prep_legal > 0 || starving ||
                  served_dirs(c + 1, clock().edge_time(c + 1),
                              drain_mode(draining_writes_)) != served;
  } else if (issued == Command::kAct) {
    decide_next = sel.pre_legal > 0;
  } else {
    decide_next = sel.prep_legal > 1;
  }
  if (decide_next) {
    next_decision_ = 0;
    return cas_issued;
  }
  act_any = act_ready_any();
  cas_dirs_ready();
  Cycle next_legal = sel.next;
  if (cas_issued && sel.cas_legal > 1) {
    next_legal = std::min({next_legal, cas_dir_ready[0], cas_dir_ready[1]});
  } else if (!cas_issued && sel.prep_legal > 1) {
    next_legal = std::min(next_legal, act_any);
  }
  // The issuing bank offers again from its new state.
  cand_[bank] = candidate_of(bank);
  cand_dirty_.set(bank, false);
  const Selection again = offer_bank(
      bank == starving_bank ? starving_candidate() : cand_[bank]);
  next_decision_ = again.cas_legal + again.prep_legal > 0
                       ? 0
                       : std::min(next_legal, again.next);
  return cas_issued;
}

Controller::Cycle Controller::attribution_pass(Cycle c, sim::TimePs now,
                                               bool serve_reads,
                                               bool serve_writes) {
  // Lines that turned visible while the next-decision gate skipped decide()
  // join their bank lists now, in the order the next decide() would link
  // them; recount_hits() keeps their hit counts right until it runs.
  index_visible(now);
  const BlameInputs in{c < refresh_busy_until_,
                       {serve_reads, serve_writes},
                       {c < dir_cas_ready(false), c < dir_cas_ready(true)},
                       bus_owner_,
                       read_block_owner_,
                       write_block_owner_};
  const sim::TimePs prev = c > 0 ? clock().edge_time(c - 1) : 0;
  const bool window_edge =
      c == 0 || attr_->window_edge(clock(), c - 1, edge_cache_) == c;
  // Off a window edge, charge_since() charges nothing for a wait whose cell
  // is unchanged. With the controller-wide inputs as the last pass read
  // them, only waits on a dirty bank can have a new cell, so the pass
  // visits those alone.
  const bool full =
      window_edge || !blame_inputs_valid_ || in != blame_inputs_;
  blame_inputs_ = in;
  blame_inputs_valid_ = true;
  const auto pass_entry = [&](QueueEntry& e, bool is_write) {
    if (!e.wait.open) {
      return;
    }
    const axi::MasterId victim = e.line.txn->master;
    axi::MasterId aggressor;
    telemetry::Cause cause;
    if (in.refresh_busy) {
      // tRFC blocks every bank; nobody's traffic is at fault.
      aggressor = telemetry::kNoOwner;
      cause = telemetry::Cause::kDramRefresh;
    } else if (!in.served[is_write]) {
      // Direction excluded from the scan: write-drain batching (or its
      // read mirror) is bus-turnaround amortisation — the opposite
      // direction owns the bus.
      aggressor = bus_owner_;
      cause = telemetry::Cause::kDramBusTurnaround;
    } else {
      const Bank& b = banks_[e.where.bank];
      if (!b.row_open() || !b.row_hit(e.where.row)) {
        // Row closed or holding someone else's row: PRE/ACT/tRCD
        // exposure, blamed on whoever activated the bank last.
        aggressor = bank_owner_[e.where.bank];
        cause = telemetry::Cause::kDramBankConflict;
      } else if (in.cas_blocked[is_write]) {
        // Row ready but the direction's CAS window is pushed out by an
        // opposite-direction burst (tWTR / tRTW).
        aggressor = is_write ? write_block_owner_ : read_block_owner_;
        cause = telemetry::Cause::kDramBusTurnaround;
      } else {
        // Schedulable but lost FR-FCFS / bus occupancy this cycle.
        aggressor = bus_owner_;
        cause = telemetry::Cause::kFabricArb;
      }
    }
    attr_->charge_since(e.wait, victim, aggressor, cause, prev, now,
                        window_edge, e.line.txn, e.where.bank);
  };
  if (full) {
    for (std::size_t w = 0; w < queues_.size(); ++w) {
      for (std::uint32_t i = queues_[w].head; i != kNil;
           i = slots_[i].q_next) {
        if (slots_[i].e.visible_at > now) {
          break;  // the rest of the queue is not visible yet either
        }
        pass_entry(slots_[i].e, w != 0);
      }
    }
  } else {
    blame_dirty_.for_each([&](std::uint32_t bank) {
      const BankIndex& bi = index_[bank];
      for (std::size_t w = 0; w < 2; ++w) {
        for (std::uint32_t i = bi.dir[w].head; i != kNil;
             i = slots_[i].b_next) {
          pass_entry(slots_[i].e, w != 0);
        }
      }
    });
  }
  blame_dirty_.clear();
  // While a line waits: the next window edge, or before it the first cycle
  // at which a cell changes on a timer — the end of tRFC while refresh
  // blocks every wait, else the end of a direction's turnaround window
  // while a served row hit waits on it. Every other change comes with a
  // command, refresh, accept() or a served-direction flip, all of which
  // tick the controller. Every visible line is listed and waits. (A line
  // queued before the engine was attached lists without a wait; it can
  // only wake the controller on a cycle where no cell changes, which the
  // sleep contract allows.)
  if (!listed_[0].any() && !listed_[1].any()) {
    return kNever;
  }
  Cycle change = in.refresh_busy ? refresh_busy_until_ : kNever;
  for (std::size_t w = 0; w < 2 && !in.refresh_busy; ++w) {
    if (in.served[w] && in.cas_blocked[w] && hit_banks_[w].any()) {
      change = std::min(change, dir_cas_ready(w != 0));
    }
  }
  return std::min(change, attr_->window_edge(clock(), c, edge_cache_));
}

void Controller::settle_attribution() {
  const Cycle next = next_polled_edge();
  if (next == 0) {
    return;
  }
  const sim::TimePs last = clock().edge_time(next - 1);
  for (const Queue& q : queues_) {
    for (std::uint32_t i = q.head; i != kNil; i = slots_[i].q_next) {
      QueueEntry& e = slots_[i].e;
      if (e.visible_at > last) {
        break;
      }
      if (e.wait.open) {
        attr_->carry(e.wait, e.line.txn->master, last, e.line.txn);
      }
    }
  }
}

void Controller::set_attribution(telemetry::AttributionEngine* engine) {
  if (attr_ != nullptr) {
    attr_->remove_settler(this);
  }
  attr_ = engine;
  if (attr_ != nullptr) {
    attr_->add_settler(this, [this] { settle_attribution(); });
  }
  blame_inputs_valid_ = false;
  blame_dirty_.clear();
  edge_cache_ = {};
  bank_owner_.assign(banks_.size(), telemetry::kNoOwner);
  bus_owner_ = telemetry::kNoOwner;
  read_block_owner_ = telemetry::kNoOwner;
  write_block_owner_ = telemetry::kNoOwner;
  refresh_busy_until_ = 0;
}

}  // namespace fgqos::dram

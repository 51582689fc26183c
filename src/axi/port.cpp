#include "axi/port.hpp"

#include <algorithm>

#include "axi/interconnect.hpp"
#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::axi {

MasterPort::MasterPort(Interconnect& owner, MasterId id, MasterPortConfig cfg)
    : owner_(owner),
      id_(id),
      cfg_(std::move(cfg)),
      queue_(cfg_.request_queue_depth, cfg_.request_latency_ps),
      ps_per_byte_(1e12 / cfg_.port_bandwidth_bps) {
  config_check(cfg_.port_bandwidth_bps > 0,
               "MasterPort '" + cfg_.name + "': bandwidth must be > 0");
  config_check(cfg_.line_bytes > 0 && (cfg_.line_bytes & (cfg_.line_bytes - 1)) == 0,
               "MasterPort '" + cfg_.name + "': line_bytes must be a power of two");
  config_check(cfg_.max_outstanding_reads > 0 && cfg_.max_outstanding_writes > 0,
               "MasterPort '" + cfg_.name + "': outstanding limits must be > 0");
}

void TxnGate::reopened() const {
  for (MasterPort* port : ports_) {
    port->gate_reopened();
  }
}

void TxnGate::closed() const {
  for (MasterPort* port : ports_) {
    port->gate_closed();
  }
}

void MasterPort::add_gate(TxnGate& gate) {
  gates_.push_back(&gate);
  gate.ports_.push_back(this);
}

void MasterPort::gate_reopened() {
  if (!queue_.empty()) {
    owner_.wake_as_polled();
  }
}

void MasterPort::gate_closed() {
  // Only blame can tell: a head the gate admitted but the slave refused
  // turns from lost arbitration to self-inflicted.
  if (attr_ != nullptr && !queue_.empty()) {
    owner_.wake_as_polled();
  }
}

bool MasterPort::can_issue(Dir dir) const {
  if (queue_.full()) {
    return false;
  }
  if (dir == Dir::kRead) {
    return out_reads_ < cfg_.max_outstanding_reads;
  }
  return out_writes_ < cfg_.max_outstanding_writes;
}

bool MasterPort::issue(PortClient& client, Dir dir, Addr addr,
                       std::uint32_t bytes, std::uint64_t user) {
  FGQOS_ASSERT(bytes > 0, "MasterPort::issue: empty transaction");
  if (!can_issue(dir)) {
    stats_.issue_rejected.add();
    return false;
  }
  const sim::TimePs now = owner_.simulator().now();
  Transaction* txn = owner_.txn_pool().create();
  txn->id = owner_.next_txn_id();
  txn->master = id_;
  txn->dir = dir;
  txn->addr = addr;
  txn->bytes = bytes;
  txn->qos = cfg_.qos;
  txn->issuer = &client;
  txn->user = user;
  txn->created = now;
  // Line split: [addr, addr+bytes) cut on line_bytes boundaries.
  const Addr first_line = addr & ~static_cast<Addr>(cfg_.line_bytes - 1);
  const Addr last_line =
      (addr + bytes - 1) & ~static_cast<Addr>(cfg_.line_bytes - 1);
  txn->lines_total =
      static_cast<std::uint32_t>((last_line - first_line) / cfg_.line_bytes + 1);
  txn->lines_left = txn->lines_total;

  if (dir == Dir::kRead) {
    ++out_reads_;
  } else {
    ++out_writes_;
  }
  stats_.txns_issued.add();
  for (auto* obs : observers_) {
    obs->on_issue(*txn, now);
  }
  const bool becomes_head = queue_.empty();
  queue_.push(txn, now);
  if (attr_ != nullptr && becomes_head) {
    // Fresh head: its head-of-line wait starts the instant it turns
    // visible (now + request latency), where notify_work() below wakes the
    // crossbar to classify it. Charged by the interconnect's attribution
    // pass, closed in commit_grant().
    attr_->begin_wait(attr_wait_, queue_.head_ready_at());
  }
  owner_.notify_work(queue_.head_ready_at());
  return true;
}

std::uint32_t MasterPort::head_line_bytes(const Transaction& txn) const {
  // Bytes of the current line actually covered by the burst (first and last
  // lines may be partial).
  const Addr line_base =
      (txn.addr + head_offset_) & ~static_cast<Addr>(cfg_.line_bytes - 1);
  const Addr cur = txn.addr + head_offset_;
  const Addr line_end = line_base + cfg_.line_bytes;
  const Addr burst_end = txn.addr + txn.bytes;
  return static_cast<std::uint32_t>(std::min<Addr>(line_end, burst_end) - cur);
}

MasterPort::BlockReason MasterPort::grant_block_reason(
    sim::TimePs now, sim::TimePs& retry) const {
  if (!queue_.can_pop(now)) {
    retry = std::min(retry, queue_.head_ready_at());
    return BlockReason::kEmpty;
  }
  if (data_free_at_ > now) {
    retry = std::min(retry, data_free_at_);
    return BlockReason::kRateLimit;
  }
  const LineRequest line = peek_line(now);
  for (const auto* gate : gates_) {
    if (!gate->allow(line, now)) {
      return BlockReason::kGate;
    }
  }
  return BlockReason::kNone;
}

LineRequest MasterPort::peek_line(sim::TimePs now) const {
  Transaction* txn = queue_.front(now);
  LineRequest line;
  line.txn = txn;
  line.addr = (txn->addr + head_offset_) & ~static_cast<Addr>(cfg_.line_bytes - 1);
  line.bytes = head_line_bytes(*txn);
  line.is_write = txn->dir == Dir::kWrite;
  line.last_of_txn = (head_offset_ + line.bytes >= txn->bytes);
  line.enqueued = now;
  return line;
}

LineRequest MasterPort::commit_grant(sim::TimePs now) {
  LineRequest line = peek_line(now);
  Transaction* txn = line.txn;
  if (head_offset_ == 0) {
    txn->granted = now;
  }
  if (attr_ != nullptr && attr_wait_.open) {
    if (line.last_of_txn) {
      // The burst leaves the fabric stage: close its head-of-line wait
      // (final slice goes to the last observed blocker) and record the
      // independently measured wait for the conservation check.
      attr_->end_wait(attr_wait_, id_, txn->bytes, now, txn);
      txn->attr_measured_ps += now - (txn->created + cfg_.request_latency_ps);
    } else {
      // Intermediate line: settle the slice up to this grant against the
      // last observed blocker; the wait stays open for the next line.
      attr_->charge(attr_wait_, id_, attr_wait_.last_aggressor,
                    attr_wait_.last_cause, now, txn);
    }
  }
  head_offset_ += line.bytes;
  if (line.last_of_txn) {
    FGQOS_ASSERT(head_offset_ == txn->bytes, "line split accounting broken");
    queue_.pop(now);
    head_offset_ = 0;
    if (attr_ != nullptr && !queue_.empty()) {
      // Successor becomes head. Any time it already spent visible behind
      // this burst is the victim's own queueing: charge it wholesale.
      const sim::TimePs visible = queue_.head_ready_at();
      if (visible < now) {
        attr_->charge_span(id_, id_, telemetry::Cause::kSelf, visible, now,
                           queue_.front(now));
      }
      attr_->begin_wait(attr_wait_, std::max(visible, now));
    }
  }
  // Port data-path occupancy: a granted line occupies the physical port for
  // bytes * ps_per_byte.
  const auto occupancy =
      static_cast<sim::TimePs>(static_cast<double>(line.bytes) * ps_per_byte_);
  data_free_at_ = now + occupancy;
  stats_.lines_granted.add();
  stats_.bytes_granted.add(line.bytes);
  if (line.is_write) {
    stats_.write_bytes.add(line.bytes);
  } else {
    stats_.read_bytes.add(line.bytes);
  }
  for (auto* gate : gates_) {
    gate->on_grant(line, now);
  }
  for (auto* obs : observers_) {
    obs->on_grant(line, now);
  }
  return line;
}

void MasterPort::complete_txn(Transaction& txn, sim::TimePs now) {
  txn.completed = now;
  if (txn.dir == Dir::kRead) {
    FGQOS_ASSERT(out_reads_ > 0, "read outstanding underflow");
    --out_reads_;
    stats_.read_latency.record(txn.latency());
  } else {
    FGQOS_ASSERT(out_writes_ > 0, "write outstanding underflow");
    --out_writes_;
    stats_.write_latency.record(txn.latency());
  }
  stats_.txns_completed.add();
  for (auto* obs : observers_) {
    obs->on_complete(txn, now);
  }
  if (attr_ != nullptr) {
    // Conservation bugcheck: every measured waited picosecond must have
    // been charged to exactly one blame cell (and nothing else).
    FGQOS_DEBUG_ASSERT(txn.attr_measured_ps == txn.attr_charged_ps,
                       "attribution conservation violated");
    const sim::TimePs d = txn.attr_measured_ps > txn.attr_charged_ps
                              ? txn.attr_measured_ps - txn.attr_charged_ps
                              : txn.attr_charged_ps - txn.attr_measured_ps;
    if (d != 0) [[unlikely]] {
      attr_->note_residual(d);
    }
  }
  // Deliver to the issuer last: it may immediately issue a new transaction
  // into the slot just released. Copy the transaction out before recycling
  // so the issuer sees stable data (the pool may hand the slot to a
  // transaction issued from on_complete).
  const Transaction snapshot = txn;
  owner_.txn_pool().destroy(&txn);
  snapshot.issuer->on_complete(snapshot);
}

void MasterPort::inject_stall(sim::TimePs duration) {
  const sim::TimePs now = owner_.simulator().now();
  data_free_at_ = std::max(data_free_at_, now + duration);
  stats_.fault_stalls.add();
  // Make sure the crossbar re-evaluates this port when the stall lifts
  // and, with attribution on, right away: a head the slave refused stops
  // losing arbitration and starts stalling on its own port.
  owner_.notify_work(data_free_at_);
  if (attr_ != nullptr) {
    owner_.wake_as_polled();
  }
}

void MasterPort::set_attribution(telemetry::AttributionEngine* engine) {
  FGQOS_ASSERT(engine == nullptr || queue_.empty(),
               "MasterPort::set_attribution: enable before issuing");
  attr_ = engine;
  attr_wait_ = telemetry::WaitState{};
}

}  // namespace fgqos::axi

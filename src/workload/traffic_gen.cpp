#include "workload/traffic_gen.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::wl {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kSeqRead: return "seq_rd";
    case Pattern::kSeqWrite: return "seq_wr";
    case Pattern::kCopy: return "copy";
    case Pattern::kRandomRead: return "rnd_rd";
    case Pattern::kRandomWrite: return "rnd_wr";
    case Pattern::kStrided: return "strided";
  }
  return "?";
}

Pattern pattern_from_name(std::string_view name) {
  for (auto i = static_cast<std::uint8_t>(Pattern::kSeqRead);
       i <= static_cast<std::uint8_t>(Pattern::kStrided); ++i) {
    const auto p = static_cast<Pattern>(i);
    if (name == pattern_name(p)) {
      return p;
    }
  }
  throw ConfigError("unknown pattern '" + std::string(name) + "'");
}

TrafficGen::TrafficGen(sim::Simulator& sim, const sim::ClockDomain& clk,
                       TrafficGenConfig cfg, axi::MasterPort& port)
    : sim::Clocked(sim, clk, cfg.name),
      cfg_(std::move(cfg)),
      port_(&port),
      rng_(cfg_.seed) {
  config_check(cfg_.burst_bytes > 0, "TrafficGen: burst_bytes must be > 0");
  config_check(cfg_.footprint_bytes >= cfg_.burst_bytes,
               "TrafficGen: footprint smaller than one burst");
  config_check(cfg_.max_outstanding > 0,
               "TrafficGen: max_outstanding must be > 0");
  config_check((cfg_.active_ps == 0) == (cfg_.idle_ps == 0),
               "TrafficGen: active_ps and idle_ps must both be set or unset");
  prof_tag_ = sim.profile_tag("workload.traffic_gen");
}

void TrafficGen::on_complete(const axi::Transaction& txn) {
  FGQOS_ASSERT(outstanding_ > 0, "TrafficGen: completion with none in flight");
  --outstanding_;
  if (txn.resp != axi::Resp::kOkay) {
    // Errored burst: the payload never arrived. The user tag carries the
    // attempt count; re-issue with capped exponential backoff.
    ++stats_.error_completions;
    const auto attempt = static_cast<std::uint32_t>(txn.user);
    if (cfg_.max_retries > 0 && attempt < cfg_.max_retries) {
      const std::uint32_t shift = std::min<std::uint32_t>(attempt, 6);
      const sim::TimePs backoff = cfg_.retry_backoff_ps << shift;
      const axi::Dir dir = txn.dir;
      const axi::Addr addr = txn.addr;
      const std::uint32_t bytes = txn.bytes;
      simulator().schedule_after(
          backoff,
          [this, dir, addr, bytes, attempt]() {
            if (port_->issue(*this, dir, addr, bytes, attempt + 1)) {
              ++outstanding_;
              ++stats_.retries_issued;
            } else {
              ++stats_.retries_abandoned;
            }
          },
          prof_tag_);
    } else {
      ++stats_.retries_abandoned;
    }
  } else {
    stats_.completed_bytes += txn.bytes;
  }
  stats_.last_completion_at = txn.completed;
  if (trace_ != nullptr) {
    trace_->counter(track_, "outstanding", txn.completed,
                    static_cast<double>(outstanding_));
  }
  wake();
}

void TrafficGen::set_trace(telemetry::TraceWriter* writer) {
  trace_ = writer;
  track_ = telemetry::TrackId{};
  if (trace_ != nullptr) {
    track_ = trace_->track(telemetry::Cat::kWorkload, cfg_.name);
    if (!track_.valid()) {
      trace_ = nullptr;  // workload category filtered out
    }
  }
}

bool TrafficGen::drained() const {
  return cfg_.max_bytes != 0 && stats_.issued_bytes >= cfg_.max_bytes &&
         outstanding_ == 0;
}

double TrafficGen::achieved_bps(sim::TimePs since_ps) const {
  const sim::TimePs now = simulator().now();
  if (now <= since_ps) {
    return 0.0;
  }
  return sim::bytes_per_second(stats_.completed_bytes, now - since_ps);
}

TrafficGen::NextOp TrafficGen::make_op() {
  const std::uint64_t bursts = cfg_.footprint_bytes / cfg_.burst_bytes;
  NextOp op{axi::Dir::kRead, cfg_.base};
  switch (cfg_.pattern) {
    case Pattern::kSeqRead:
    case Pattern::kSeqWrite: {
      op.dir = cfg_.pattern == Pattern::kSeqWrite ? axi::Dir::kWrite
                                                  : axi::Dir::kRead;
      op.addr = cfg_.base + (cursor_ % bursts) * cfg_.burst_bytes;
      ++cursor_;
      break;
    }
    case Pattern::kCopy: {
      // Read from the lower half, write to the upper half, alternating.
      const std::uint64_t half = bursts / 2;
      const std::uint64_t idx = cursor_ % (half == 0 ? 1 : half);
      if (copy_phase_write_) {
        op.dir = axi::Dir::kWrite;
        op.addr = cfg_.base + (half + idx) * cfg_.burst_bytes;
        ++cursor_;
      } else {
        op.dir = axi::Dir::kRead;
        op.addr = cfg_.base + idx * cfg_.burst_bytes;
      }
      copy_phase_write_ = !copy_phase_write_;
      break;
    }
    case Pattern::kRandomRead:
    case Pattern::kRandomWrite: {
      op.dir = cfg_.pattern == Pattern::kRandomWrite ? axi::Dir::kWrite
                                                     : axi::Dir::kRead;
      op.addr = cfg_.base + rng_.next_below(bursts) * cfg_.burst_bytes;
      break;
    }
    case Pattern::kStrided: {
      op.dir = axi::Dir::kRead;
      const std::uint64_t offset =
          (cursor_ * cfg_.stride_bytes) % cfg_.footprint_bytes;
      op.addr = cfg_.base + offset;
      ++cursor_;
      break;
    }
  }
  return op;
}

bool TrafficGen::in_active_phase(sim::TimePs now,
                                 sim::TimePs* resume_at) const {
  if (cfg_.active_ps == 0) {
    return true;
  }
  const sim::TimePs cycle_len = cfg_.active_ps + cfg_.idle_ps;
  const sim::TimePs phase = now % cycle_len;
  if (phase < cfg_.active_ps) {
    return true;
  }
  *resume_at = now + (cycle_len - phase);
  return false;
}

bool TrafficGen::tick(sim::Cycles /*cycle*/) {
  const sim::TimePs now = simulator().now();
  if (cfg_.max_bytes != 0 && stats_.issued_bytes >= cfg_.max_bytes) {
    return false;  // done; completions still drain via on_complete
  }
  sim::TimePs resume = 0;
  if (!in_active_phase(now, &resume)) {
    wake_at(resume);
    return false;
  }
  if (outstanding_ >= cfg_.max_outstanding) {
    return false;  // on_complete wakes us
  }
  if (cfg_.target_bps > 0 && now < next_paced_issue_) {
    wake_at(next_paced_issue_);
    return false;
  }
  const NextOp op = make_op();
  if (!port_->issue(*this, op.dir, op.addr, cfg_.burst_bytes)) {
    return true;  // port queue full; retry next cycle
  }
  ++outstanding_;
  ++stats_.transactions;
  stats_.issued_bytes += cfg_.burst_bytes;
  if (trace_ != nullptr) {
    trace_->counter(track_, "outstanding", now,
                    static_cast<double>(outstanding_));
  }
  if (stats_.first_issue_at == sim::kTimeNever) {
    stats_.first_issue_at = now;
  }
  if (cfg_.target_bps > 0) {
    const double interval_ps =
        static_cast<double>(cfg_.burst_bytes) * 1e12 / cfg_.target_bps;
    next_paced_issue_ = now + static_cast<sim::TimePs>(interval_ps);
  }
  return true;
}

}  // namespace fgqos::wl

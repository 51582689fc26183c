#include "telemetry/attribution.hpp"

#include <fstream>
#include <vector>

#include "util/assert.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos::telemetry {

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::kFabricArb: return "fabric_arb";
    case Cause::kDramBankConflict: return "dram_bank_conflict";
    case Cause::kDramBusTurnaround: return "dram_bus_turnaround";
    case Cause::kDramRefresh: return "dram_refresh";
    case Cause::kSelf: return "self";
  }
  return "?";
}

AttributionEngine::AttributionEngine(MetricsRegistry& metrics,
                                     sim::TimePs window_ps)
    : metrics_(metrics), window_ps_(window_ps) {
  config_check(window_ps_ > 0, "AttributionEngine: window must be > 0");
}

void AttributionEngine::register_master(axi::MasterId id, std::string name) {
  config_check(id == names_.size(),
               "AttributionEngine: master ids must be registered densely");
  names_.push_back(std::move(name));
  const std::size_t cells = names_.size() * names_.size() * kCauseCount;
  window_cells_.assign(cells, Cell{});
  totals_.assign(cells, Cell{});
  config_check(windows_closed_ == 0,
               "AttributionEngine: register masters before charging");
}

void AttributionEngine::add_window_listener(WindowListener fn) {
  listeners_.push_back(std::move(fn));
}

void AttributionEngine::add_settler(const void* owner,
                                    std::function<void()> fn) {
  settlers_.emplace_back(owner, std::move(fn));
}

void AttributionEngine::remove_settler(const void* owner) {
  std::erase_if(settlers_,
                [owner](const auto& s) { return s.first == owner; });
}

void AttributionEngine::settle() {
  for (const auto& s : settlers_) {
    s.second();
  }
}

void AttributionEngine::enable_bank_dimension(std::uint32_t banks) {
  config_check(banks > 0, "AttributionEngine: bank count must be > 0");
  config_check(!names_.empty(),
               "AttributionEngine: register masters before enabling the "
               "bank dimension");
  config_check(windows_closed_ == 0,
               "AttributionEngine: enable the bank dimension before charging");
  banks_ = banks;
  bank_totals_.assign(names_.size() * banks_ * kCauseCount, Cell{});
}

void AttributionEngine::set_trace(TraceWriter* writer) {
  trace_ = writer;
  tracks_.clear();
  if (trace_ == nullptr) {
    return;
  }
  tracks_.reserve(names_.size());
  for (const std::string& n : names_) {
    tracks_.push_back(trace_->track(Cat::kAttr, n));
  }
  if (!tracks_.empty() && !tracks_.front().valid()) {
    trace_ = nullptr;  // attr category filtered out
    tracks_.clear();
  }
}

void AttributionEngine::normalize(axi::MasterId victim,
                                  axi::MasterId& aggressor,
                                  Cause& cause) const {
  if (aggressor == kNoOwner) {
    aggressor = victim;
  }
  FGQOS_ASSERT(aggressor < names_.size() && victim < names_.size(),
               "AttributionEngine: unregistered master");
  // Losing arbitration to your own in-flight work is not interference.
  if (aggressor == victim && cause == Cause::kFabricArb) {
    cause = Cause::kSelf;
  }
}

void AttributionEngine::add(axi::MasterId victim, axi::MasterId aggressor,
                            Cause cause, std::uint64_t ps, sim::TimePs at) {
  roll_to(at);
  const std::size_t i = index(victim, aggressor, cause);
  window_cells_[i].stall_ps += ps;
  totals_[i].stall_ps += ps;
}

void AttributionEngine::charge(WaitState& w, axi::MasterId victim,
                               axi::MasterId aggressor, Cause cause,
                               sim::TimePs now, axi::Transaction* txn,
                               std::uint32_t bank) {
  FGQOS_ASSERT(w.open && now >= w.last, "AttributionEngine: bad charge");
  normalize(victim, aggressor, cause);
  const std::uint64_t slice = now - w.last;
  w.last = now;
  w.last_aggressor = aggressor;
  w.last_bank = bank;
  w.last_cause = cause;
  if (slice == 0) {
    return;
  }
  add(victim, aggressor, cause, slice, now);
  if (banks_ != 0 && bank < banks_) {
    bank_totals_[bank_index(victim, bank, cause)].stall_ps += slice;
  }
  if (txn != nullptr) {
    txn->attr_charged_ps += slice;
  }
}

void AttributionEngine::end_wait(WaitState& w, axi::MasterId victim,
                                 std::uint32_t bytes, sim::TimePs now,
                                 axi::Transaction* txn) {
  FGQOS_ASSERT(w.open && now >= w.last, "AttributionEngine: bad end_wait");
  axi::MasterId aggressor = w.last_aggressor;
  Cause cause = w.last_cause;
  normalize(victim, aggressor, cause);
  const std::uint64_t slice = now - w.last;
  const bool bank_cell = banks_ != 0 && w.last_bank < banks_;
  if (slice != 0) {
    add(victim, aggressor, cause, slice, now);
    if (bank_cell) {
      bank_totals_[bank_index(victim, w.last_bank, cause)].stall_ps += slice;
    }
    if (txn != nullptr) {
      txn->attr_charged_ps += slice;
    }
  }
  if (now > w.start && bytes != 0) {
    roll_to(now);
    const std::size_t i = index(victim, aggressor, cause);
    window_cells_[i].bytes += bytes;
    totals_[i].bytes += bytes;
    if (bank_cell) {
      bank_totals_[bank_index(victim, w.last_bank, cause)].bytes += bytes;
    }
  }
  w.open = false;
}

void AttributionEngine::charge_span(axi::MasterId victim,
                                    axi::MasterId aggressor, Cause cause,
                                    sim::TimePs start, sim::TimePs end,
                                    axi::Transaction* txn) {
  FGQOS_ASSERT(end >= start, "AttributionEngine: bad span");
  if (end == start) {
    return;
  }
  normalize(victim, aggressor, cause);
  add(victim, aggressor, cause, end - start, end);
  if (txn != nullptr) {
    txn->attr_charged_ps += end - start;
  }
}

void AttributionEngine::roll_to(sim::TimePs at) {
  while (at > window_start_ + window_ps_) {
    publish_window(window_start_ + window_ps_);
  }
}

void AttributionEngine::publish_window(sim::TimePs end) {
  WindowRecord rec;
  rec.start = window_start_;
  rec.end = end;
  rec.cells = window_cells_;
  if (trace_ != nullptr) {
    for (axi::MasterId v = 0; v < names_.size(); ++v) {
      for (std::size_t c = 0; c < kCauseCount; ++c) {
        std::uint64_t ps = 0;
        for (std::size_t a = 0; a < names_.size(); ++a) {
          ps += rec.cells[index(v, static_cast<axi::MasterId>(a),
                                static_cast<Cause>(c))].stall_ps;
        }
        trace_->counter(tracks_[v], cause_name(static_cast<Cause>(c)), end,
                        static_cast<double>(ps));
      }
    }
  }
  for (const WindowListener& fn : listeners_) {
    fn(rec);
  }
  ++windows_closed_;
  if (keep_windows_) {
    history_.push_back(std::move(rec));
  }
  window_cells_.assign(window_cells_.size(), Cell{});
  window_start_ = end;
}

void AttributionEngine::finish(sim::TimePs now) {
  if (finished_) {
    return;
  }
  finished_ = true;
  settle();
  roll_to(now);
  if (now > window_start_) {
    publish_window(now);  // final partial window
  }
}

std::uint64_t AttributionEngine::victim_stall_ps(axi::MasterId victim) const {
  std::uint64_t ps = 0;
  for (std::size_t a = 0; a < names_.size(); ++a) {
    for (std::size_t c = 0; c < kCauseCount; ++c) {
      ps += totals_[index(victim, static_cast<axi::MasterId>(a),
                          static_cast<Cause>(c))].stall_ps;
    }
  }
  return ps;
}

std::uint64_t AttributionEngine::bank_stall_ps(axi::MasterId victim,
                                               std::uint32_t bank) const {
  if (banks_ == 0 || bank >= banks_) {
    return 0;
  }
  std::uint64_t ps = 0;
  for (std::size_t c = 0; c < kCauseCount; ++c) {
    ps += bank_totals_[bank_index(victim, bank, static_cast<Cause>(c))]
              .stall_ps;
  }
  return ps;
}

std::uint64_t AttributionEngine::blame_ps(axi::MasterId victim,
                                          axi::MasterId aggressor) const {
  std::uint64_t ps = 0;
  for (std::size_t c = 0; c < kCauseCount; ++c) {
    ps += totals_[index(victim, aggressor, static_cast<Cause>(c))].stall_ps;
  }
  return ps;
}

std::uint64_t AttributionEngine::cause_ps(axi::MasterId victim,
                                          Cause cause) const {
  std::uint64_t ps = 0;
  for (std::size_t a = 0; a < names_.size(); ++a) {
    ps += totals_[index(victim, static_cast<axi::MasterId>(a), cause)].stall_ps;
  }
  return ps;
}

bool AttributionEngine::dominant(const std::vector<Cell>& cells,
                                 axi::MasterId victim, axi::MasterId& aggressor,
                                 Cause& cause, std::uint64_t& stall_ps) const {
  stall_ps = 0;
  bool found = false;
  for (std::size_t a = 0; a < names_.size(); ++a) {
    for (std::size_t c = 0; c < kCauseCount; ++c) {
      const Cell& cell = cells[index(victim, static_cast<axi::MasterId>(a),
                                     static_cast<Cause>(c))];
      if (cell.stall_ps > stall_ps) {
        stall_ps = cell.stall_ps;
        aggressor = static_cast<axi::MasterId>(a);
        cause = static_cast<Cause>(c);
        found = true;
      }
    }
  }
  return found;
}

void AttributionEngine::write_cells(std::ostream& os,
                                    const std::vector<Cell>& cells,
                                    const char* scope, sim::TimePs start,
                                    sim::TimePs end,
                                    const std::string& row_prefix) const {
  for (axi::MasterId v = 0; v < names_.size(); ++v) {
    for (std::size_t a = 0; a < names_.size(); ++a) {
      for (std::size_t c = 0; c < kCauseCount; ++c) {
        const Cell& cell = cells[index(v, static_cast<axi::MasterId>(a),
                                       static_cast<Cause>(c))];
        if (cell.stall_ps == 0 && cell.bytes == 0) {
          continue;
        }
        os << row_prefix << scope << ',' << start << ',' << end << ','
           << names_[v] << ',' << names_[a] << ','
           << cause_name(static_cast<Cause>(c)) << ',' << cell.stall_ps << ','
           << cell.bytes << '\n';
      }
    }
  }
}

void AttributionEngine::write_csv(std::ostream& os, bool header,
                                  const std::string& row_prefix,
                                  const std::string& header_prefix) const {
  if (header) {
    os << header_prefix
       << "scope,window_start_ps,window_end_ps,victim,aggressor,cause,"
          "stall_ps,bytes\n";
  }
  for (const WindowRecord& w : history_) {
    write_cells(os, w.cells, "window", w.start, w.end, row_prefix);
  }
  // The last closed window ended where the open one starts.
  const sim::TimePs end = window_start_;
  write_cells(os, totals_, "total", 0, end, row_prefix);
  // Bank-dimension rows reuse the schema with the aggressor column holding
  // the bank label; absent entirely while the dimension is disabled, so
  // bank-less exports stay byte-identical.
  for (axi::MasterId v = 0; v < names_.size(); ++v) {
    for (std::uint32_t b = 0; b < banks_; ++b) {
      for (std::size_t c = 0; c < kCauseCount; ++c) {
        const Cell& cell = bank_totals_[bank_index(v, b,
                                                   static_cast<Cause>(c))];
        if (cell.stall_ps == 0 && cell.bytes == 0) {
          continue;
        }
        os << row_prefix << "bank_total,0," << end << ',' << names_[v]
           << ",bank" << b << ',' << cause_name(static_cast<Cause>(c)) << ','
           << cell.stall_ps << ',' << cell.bytes << '\n';
      }
    }
  }
}

void AttributionEngine::save_csv(const std::string& path) const {
  std::ofstream os(path);
  config_check(os.good(), "AttributionEngine: cannot write " + path);
  write_csv(os);
}

void AttributionEngine::write_json(std::ostream& os) const {
  os << "{\"window_ps\":" << window_ps_ << ",\"masters\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    os << (i == 0 ? "" : ",") << '"' << util::json_escape(names_[i]) << '"';
  }
  os << "],\"causes\":[";
  for (std::size_t c = 0; c < kCauseCount; ++c) {
    os << (c == 0 ? "" : ",") << '"' << cause_name(static_cast<Cause>(c))
       << '"';
  }
  const auto write_matrix = [&](const std::vector<Cell>& cells) {
    os << '[';
    bool first = true;
    for (axi::MasterId v = 0; v < names_.size(); ++v) {
      for (std::size_t a = 0; a < names_.size(); ++a) {
        for (std::size_t c = 0; c < kCauseCount; ++c) {
          const Cell& cell = cells[index(v, static_cast<axi::MasterId>(a),
                                         static_cast<Cause>(c))];
          if (cell.stall_ps == 0 && cell.bytes == 0) {
            continue;
          }
          os << (first ? "" : ",") << "{\"victim\":" << v << ",\"aggressor\":"
             << a << ",\"cause\":\"" << cause_name(static_cast<Cause>(c))
             << "\",\"stall_ps\":" << cell.stall_ps << ",\"bytes\":"
             << cell.bytes << '}';
          first = false;
        }
      }
    }
    os << ']';
  };
  os << "],\"windows\":[";
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const WindowRecord& w = history_[i];
    os << (i == 0 ? "" : ",") << "{\"start_ps\":" << w.start << ",\"end_ps\":"
       << w.end << ",\"cells\":";
    write_matrix(w.cells);
    os << '}';
  }
  os << "],\"totals\":";
  write_matrix(totals_);
  if (banks_ != 0) {
    os << ",\"banks\":" << banks_ << ",\"bank_totals\":[";
    bool first = true;
    for (axi::MasterId v = 0; v < names_.size(); ++v) {
      for (std::uint32_t b = 0; b < banks_; ++b) {
        for (std::size_t c = 0; c < kCauseCount; ++c) {
          const Cell& cell = bank_totals_[bank_index(v, b,
                                                     static_cast<Cause>(c))];
          if (cell.stall_ps == 0 && cell.bytes == 0) {
            continue;
          }
          os << (first ? "" : ",") << "{\"victim\":" << v << ",\"bank\":" << b
             << ",\"cause\":\"" << cause_name(static_cast<Cause>(c))
             << "\",\"stall_ps\":" << cell.stall_ps << ",\"bytes\":"
             << cell.bytes << '}';
          first = false;
        }
      }
    }
    os << ']';
  }
  os << ",\"residual_ps\":" << residual_ps_ << "}\n";
}

void AttributionEngine::save_json(const std::string& path) const {
  std::ofstream os(path);
  config_check(os.good(), "AttributionEngine: cannot write " + path);
  write_json(os);
}

void AttributionEngine::publish_metrics() {
  settle();
  const auto set_counter = [this](const std::string& name, std::uint64_t v) {
    Counter& c = metrics_.counter(name);
    c.reset();
    c.add(v);
  };
  for (axi::MasterId v = 0; v < names_.size(); ++v) {
    const std::string prefix = "attr." + names_[v] + ".";
    set_counter(prefix + "stall_ps", victim_stall_ps(v));
    for (std::size_t c = 0; c < kCauseCount; ++c) {
      set_counter(prefix + "cause." + cause_name(static_cast<Cause>(c)) +
                      "_ps",
                  cause_ps(v, static_cast<Cause>(c)));
    }
    for (axi::MasterId a = 0; a < names_.size(); ++a) {
      set_counter(prefix + "from." + names_[a] + "_ps", blame_ps(v, a));
    }
    for (std::uint32_t b = 0; b < banks_; ++b) {
      const std::uint64_t ps = bank_stall_ps(v, b);
      if (ps != 0) {
        set_counter(prefix + "bank." + std::to_string(b) + "_ps", ps);
      }
    }
  }
  set_counter("telemetry.attribution.windows", windows_closed_);
  metrics_.gauge("telemetry.attribution.residual_ps")
      .set(static_cast<double>(residual_ps_));
}

}  // namespace fgqos::telemetry

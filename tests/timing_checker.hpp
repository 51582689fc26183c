/// \file timing_checker.hpp
/// \brief An independent DRAM legality checker: re-validates every command
///        a dram::Controller reports against the TimingConfig table.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/controller.hpp"
#include "dram/timing.hpp"

namespace fgqos::testing {

/// Shadows a controller's command stream (Controller::set_command_observer)
/// and records every command that breaks a timing rule. It keeps its own
/// bank and bus state from the commands alone, so it shares no code with
/// the controller's scheduler. Checked: one command per cycle; ACT after
/// tRP (explicit or auto-precharge), tRC, tRRD_S/tRRD_L, tFAW and tRFC;
/// PRE after tRAS, tRTP and tWR on an open bank; CAS to the open row after
/// tRCD and tCCD_S/tCCD_L, without overlapping data bursts, and after the
/// tWTR/tRTW turnaround. A refresh closes every row (the model folds the
/// precharge-all into it).
class TimingChecker final : public dram::CommandObserver {
 public:
  using Cycle = dram::Bank::Cycle;
  using Kind = dram::IssuedCommand::Kind;

  explicit TimingChecker(const dram::TimingConfig& t)
      : t_(t),
        banks_(t.banks),
        act_group_(t.bank_groups, kNone),
        cas_group_(t.bank_groups, kNone) {}

  void on_command(const dram::IssuedCommand& cmd) override {
    const Cycle c = cmd.cycle;
    check(commands_ == 0 || c > last_cycle_, cmd, "one command per cycle");
    last_cycle_ = c;
    ++commands_;
    ++kinds_[static_cast<std::size_t>(cmd.kind)];
    if (cmd.kind == Kind::kRefresh) {
      for (BankState& b : banks_) {
        b.open = false;
      }
      refresh_done_ = c + t_.tRFC;
      return;
    }
    BankState& b = banks_[cmd.bank];
    const std::uint32_t g = t_.group_of(cmd.bank);
    switch (cmd.kind) {
      case Kind::kAct:
        check(!b.open, cmd, "ACT to an open bank");
        check(b.closed_at == kNone || c >= b.closed_at + t_.tRP, cmd, "tRP");
        check(b.act == kNone || c >= b.act + t_.tRC, cmd, "tRC");
        check(last_act_ == kNone || c >= last_act_ + t_.tRRD_S, cmd,
              "tRRD_S");
        check(act_group_[g] == kNone || c >= act_group_[g] + t_.tRRD_L, cmd,
              "tRRD_L");
        check(acts_ < 4 || c >= faw_[acts_ % 4] + t_.tFAW, cmd, "tFAW");
        check(refresh_done_ == kNone || c >= refresh_done_, cmd, "tRFC");
        b = {true, cmd.row, c, c + t_.tRAS, kNone};
        last_act_ = act_group_[g] = faw_[acts_ % 4] = c;
        ++acts_;
        break;
      case Kind::kPre:
        check(b.open, cmd, "PRE to a closed bank");
        check(c >= b.pre_floor, cmd, "tRAS/tRTP/tWR");
        b.open = false;
        b.closed_at = c;
        break;
      case Kind::kRead:
      case Kind::kWrite: {
        const bool write = cmd.kind == Kind::kWrite;
        check(b.open && b.row == cmd.row, cmd, "CAS to a row not open");
        check(c >= b.act + t_.tRCD, cmd, "tRCD");
        check(last_cas_ == kNone || c >= last_cas_ + t_.tCCD_S, cmd,
              "tCCD_S");
        check(cas_group_[g] == kNone || c >= cas_group_[g] + t_.tCCD_L, cmd,
              "tCCD_L");
        const Cycle start = c + (write ? t_.tCWL : t_.tCL);
        const Cycle end = start + t_.burst_cycles();
        check(start >= data_end_, cmd, "data bus overlap");
        if (write) {
          check(read_end_ == kNone || start >= read_end_ + t_.tRTW, cmd,
                "tRTW");
          write_end_ = end;
          b.pre_floor = std::max(b.pre_floor, end + t_.tWR);
        } else {
          check(write_end_ == kNone || c >= write_end_ + t_.tWTR, cmd,
                "tWTR");
          read_end_ = end;
          b.pre_floor = std::max(b.pre_floor, c + t_.tRTP);
        }
        data_end_ = end;
        last_cas_ = cas_group_[g] = c;
        if (cmd.auto_precharge) {
          b.open = false;
          b.closed_at = b.pre_floor;
        }
        break;
      }
      case Kind::kRefresh:
        break;
    }
  }

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t commands() const { return commands_; }
  /// Commands seen of one kind.
  [[nodiscard]] std::uint64_t count(Kind kind) const {
    return kinds_[static_cast<std::size_t>(kind)];
  }

 private:
  static constexpr Cycle kNone = ~Cycle{0};

  struct BankState {
    bool open = false;
    std::uint64_t row = 0;
    Cycle act = kNone;        ///< last ACT
    Cycle pre_floor = 0;      ///< earliest PRE: tRAS, tRTP, tWR
    Cycle closed_at = kNone;  ///< last PRE or auto-precharge
  };

  void check(bool ok, const dram::IssuedCommand& cmd, const char* rule) {
    if (!ok) {
      violations_.push_back(std::string(rule) + " at cycle " +
                            std::to_string(cmd.cycle) + ", bank " +
                            std::to_string(cmd.bank));
    }
  }

  dram::TimingConfig t_;
  std::vector<BankState> banks_;
  std::vector<Cycle> act_group_;  ///< last ACT per bank group
  std::vector<Cycle> cas_group_;  ///< last CAS per bank group
  Cycle last_act_ = kNone;
  Cycle last_cas_ = kNone;
  std::array<Cycle, 4> faw_{};  ///< the last four ACTs (ring)
  std::uint64_t acts_ = 0;
  Cycle data_end_ = 0;
  Cycle read_end_ = kNone;
  Cycle write_end_ = kNone;
  Cycle refresh_done_ = kNone;
  Cycle last_cycle_ = 0;
  std::uint64_t commands_ = 0;
  std::array<std::uint64_t, 5> kinds_{};
  std::vector<std::string> violations_;
};

}  // namespace fgqos::testing

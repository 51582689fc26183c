#include "dram/timing.hpp"

#include "dram/bank_set.hpp"
#include "util/config_error.hpp"

namespace fgqos::dram {

void TimingConfig::validate() const {
  config_check(clock_mhz > 0, "TimingConfig: clock_mhz must be > 0");
  config_check(data_bytes_per_cycle > 0,
               "TimingConfig: data_bytes_per_cycle must be > 0");
  config_check(burst_bytes % data_bytes_per_cycle == 0,
               "TimingConfig: burst_bytes must be a multiple of the bus width");
  config_check(banks > 0, "TimingConfig: banks must be > 0");
  config_check((banks & (banks - 1)) == 0,
               "TimingConfig: banks must be a power of two");
  config_check(bank_groups > 0 && banks % bank_groups == 0,
               "TimingConfig: banks must divide evenly into bank groups");
  config_check(banks <= BankSet::kMaxBanks,
               "TimingConfig: at most 256 banks");
  config_check(bank_groups <= 64, "TimingConfig: at most 64 bank groups");
  config_check(tRRD_L >= tRRD_S, "TimingConfig: tRRD_L must cover tRRD_S");
  config_check(tCCD_L >= tCCD_S, "TimingConfig: tCCD_L must cover tCCD_S");
  config_check(row_bytes >= burst_bytes,
               "TimingConfig: row must hold at least one burst");
  config_check((row_bytes & (row_bytes - 1)) == 0,
               "TimingConfig: row_bytes must be a power of two");
  config_check(capacity_bytes >= row_bytes * banks,
               "TimingConfig: capacity smaller than one row per bank");
  config_check(tRAS >= tRCD, "TimingConfig: tRAS must cover tRCD");
  config_check(tRC >= tRAS, "TimingConfig: tRC must cover tRAS");
  config_check(tREFI > tRFC, "TimingConfig: tREFI must exceed tRFC");
}

}  // namespace fgqos::dram

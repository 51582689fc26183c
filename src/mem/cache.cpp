#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/config_error.hpp"

namespace fgqos::mem {

void CacheConfig::validate() const {
  config_check(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
               "CacheConfig '" + name + "': line_bytes must be a power of two");
  config_check(ways > 0, "CacheConfig '" + name + "': ways must be > 0");
  config_check(size_bytes % (static_cast<std::uint64_t>(line_bytes) * ways) == 0,
               "CacheConfig '" + name +
                   "': size must be a multiple of line_bytes * ways");
  const std::uint64_t s = size_bytes / (static_cast<std::uint64_t>(line_bytes) * ways);
  config_check(s > 0 && (s & (s - 1)) == 0,
               "CacheConfig '" + name + "': set count must be a power of two");
}

Cache::Cache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  const std::uint64_t sets = cfg_.sets();
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.line_bytes));
  tag_shift_ = line_shift_ + static_cast<std::uint32_t>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  const std::size_t lines = static_cast<std::size_t>(sets) * cfg_.ways;
  tags_.assign(lines, 0);
  lru_.assign(lines, 0);
  dirty_.assign(lines, 0);
}

std::ptrdiff_t Cache::find(std::size_t base, std::uint64_t tag) const {
  const std::uint64_t* set = &tags_[base];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (set[w] == tag) {
      return w;
    }
  }
  return -1;
}

void Cache::touch(std::size_t i, bool is_write) {
  lru_[i] = ++lru_clock_;
  if (is_write) {
    dirty_[i] = 1;
  }
  stats_.hits.add();
}

bool Cache::access_if_present(axi::Addr addr, bool is_write) {
  const std::size_t base = set_base(addr);
  const std::ptrdiff_t w = find(base, stored_tag(addr));
  if (w < 0) {
    return false;
  }
  touch(base + static_cast<std::size_t>(w), is_write);
  return true;
}

CacheAccessResult Cache::access(axi::Addr addr, bool is_write) {
  // One pass: the hit, else the victim: the first invalid way, else the
  // true-LRU way. Ways fill in order and are only invalidated all at once
  // (flush()), so no valid way follows an invalid one and the scan can
  // stop at the first.
  const std::size_t base = set_base(addr);
  const std::uint64_t tag = stored_tag(addr);
  std::size_t victim = base;
  for (std::size_t i = base; i < base + cfg_.ways; ++i) {
    if (tags_[i] == tag) {
      touch(i, is_write);
      return CacheAccessResult{true, std::nullopt};
    }
    if (tags_[i] == 0) {
      victim = i;
      break;
    }
    if (lru_[i] < lru_[victim]) {
      victim = i;
    }
  }
  stats_.misses.add();
  CacheAccessResult res{false, std::nullopt};
  if (tags_[victim] != 0 && dirty_[victim] != 0) {
    const std::uint64_t set = (addr >> line_shift_) & set_mask_;
    const std::uint64_t victim_tag = tags_[victim] - 1;
    res.writeback_addr =
        ((victim_tag << (tag_shift_ - line_shift_)) | set) << line_shift_;
    stats_.writebacks.add();
  }
  tags_[victim] = tag;
  dirty_[victim] = is_write ? 1 : 0;
  lru_[victim] = ++lru_clock_;
  return res;
}

bool Cache::probe(axi::Addr addr) const {
  return find(set_base(addr), stored_tag(addr)) >= 0;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

}  // namespace fgqos::mem

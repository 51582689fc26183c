#include "mem/mshr.hpp"

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::mem {

MshrFile::MshrFile(std::size_t entries) : capacity_(entries) {
  config_check(capacity_ > 0, "MshrFile: capacity must be > 0");
  entries_.reserve(capacity_);
}

bool MshrFile::allocate(axi::Addr line_addr) {
  const std::size_t i = index_of(line_addr);
  if (i < entries_.size()) {
    ++entries_[i].waiters;
    ++merges_;
    return true;
  }
  if (full()) {
    return false;
  }
  entries_.push_back(Entry{line_addr, 1});
  return true;
}

std::uint32_t MshrFile::waiters(axi::Addr line_addr) const {
  const std::size_t i = index_of(line_addr);
  return i < entries_.size() ? entries_[i].waiters : 0;
}

std::uint32_t MshrFile::complete(axi::Addr line_addr) {
  const std::size_t i = index_of(line_addr);
  FGQOS_ASSERT(i < entries_.size(), "MshrFile: completing unknown line");
  const std::uint32_t n = entries_[i].waiters;
  // Order carries no meaning: move the last entry into the freed slot.
  entries_[i] = entries_.back();
  entries_.pop_back();
  return n;
}

}  // namespace fgqos::mem

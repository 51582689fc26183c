/// \file bank_set.hpp
/// \brief A set of DRAM banks, one bit per bank.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace fgqos::dram {

/// A set of up to kMaxBanks banks as 64-bit words held inline, bank b at
/// bit b % 64 of word b / 64. Selection combines several sets word by
/// word through word() and walks the set bits of the result with
/// for_each_bit().
class BankSet {
 public:
  static constexpr std::uint32_t kMaxBanks = 256;

  BankSet() = default;
  explicit BankSet(std::uint32_t banks) : words_((banks + 63) / 64) {}

  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return bits_[w]; }

  [[nodiscard]] bool test(std::uint32_t bank) const {
    return (bits_[bank / 64] >> (bank % 64) & 1) != 0;
  }
  void set(std::uint32_t bank, bool on = true) {
    const std::uint64_t mask = std::uint64_t{1} << (bank % 64);
    std::uint64_t& w = bits_[bank / 64];
    w = on ? w | mask : w & ~mask;
  }
  void clear() {
    for (std::size_t w = 0; w < words_; ++w) {
      bits_[w] = 0;
    }
  }
  [[nodiscard]] bool any() const {
    std::uint64_t all = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      all |= bits_[w];
    }
    return all != 0;
  }

  /// Calls \p f(bank) for each bank in the set, lowest first.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_; ++w) {
      for_each_bit(w, bits_[w], f);
    }
  }

  /// Calls \p f(bank) for each set bit of \p bits, word \p w of a set,
  /// lowest first.
  template <class F>
  static void for_each_bit(std::size_t w, std::uint64_t bits, F&& f) {
    for (; bits != 0; bits &= bits - 1) {
      f(static_cast<std::uint32_t>(
          w * 64 + static_cast<unsigned>(std::countr_zero(bits))));
    }
  }

 private:
  std::array<std::uint64_t, kMaxBanks / 64> bits_{};
  std::size_t words_ = 0;
};

}  // namespace fgqos::dram

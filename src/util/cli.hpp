/// \file cli.hpp
/// \brief Tiny --key=value / --flag command-line parser for the tools.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fgqos::util {

/// Parses \p text as a non-negative integer for option \p flag; throws
/// ConfigError naming the flag and the text otherwise ("-1", "2.7", "x",
/// or a value above 2^64 - 1).
[[nodiscard]] std::size_t parse_count(const std::string& text,
                                      const std::string& flag);
/// Parses \p text as a number for option \p flag; throws ConfigError
/// naming the flag and the text when it is not one or overflows.
[[nodiscard]] double parse_number(const std::string& text,
                                  const std::string& flag);
/// Parses \p text as a positive, finite number for option \p flag (a
/// duration or a window); throws ConfigError "<flag> expects a positive
/// number, got '<text>'" for 0, signs, nan, inf and non-numbers.
[[nodiscard]] double parse_positive(const std::string& text,
                                    const std::string& flag);

/// Parses `--key=value`, `--key value` and bare `--flag` arguments.
/// Unknown positional arguments are collected separately.
class ArgParser {
 public:
  /// Parses argv; throws ConfigError on malformed input ("--" prefix with
  /// empty key, or the same option given twice).
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Returns the value, or \p def when absent. A bare flag reads as "".
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def = "") const;

  /// Typed getters; throw ConfigError when present but unparsable.
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  /// A positive, finite number (parse_positive) or \p def when absent.
  [[nodiscard]] double get_positive(const std::string& key, double def) const;
  /// A count: a non-negative integer (parse_count) or \p def when absent.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Keys that were never read via has()/get*(); used to reject typos.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace fgqos::util

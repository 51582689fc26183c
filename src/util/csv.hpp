/// \file csv.hpp
/// \brief Minimal CSV / aligned-table emitters used by benches and examples.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace fgqos::util {

/// One table cell: string, integer or floating-point value.
using Cell = std::variant<std::string, std::int64_t, std::uint64_t, double>;

/// Renders a cell as text. Doubles use up to 6 significant digits and drop
/// a trailing ".0" only when the value is integral.
std::string cell_to_string(const Cell& cell);

/// Accumulates rows and writes them either as CSV or as a human-readable
/// aligned table (the format the bench binaries print to stdout).
class Table {
 public:
  /// Creates a table with a fixed header; every later row must have the
  /// same number of cells.
  explicit Table(std::vector<std::string> header);

  /// Appends one row. Throws ConfigError if the arity differs from the
  /// header.
  void add_row(std::vector<Cell> row);

  /// Writes `header\nrow\n...` with comma separation and minimal quoting
  /// (cells containing commas or quotes are double-quoted).
  void write_csv(std::ostream& os) const;

  /// Writes a column-aligned table with a separator rule under the header.
  void write_pretty(std::ostream& os) const;

  /// Convenience: write_pretty to stdout.
  void print() const;

  /// Writes the CSV form to \p path. Throws ConfigError on I/O failure.
  void save_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace fgqos::util

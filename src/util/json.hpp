/// \file json.hpp
/// \brief Minimal JSON document model and recursive-descent parser.
///
/// Used to round-trip-validate the telemetry exporters (Chrome trace and
/// metrics snapshots) in tests and tools without an external dependency.
/// Supports the full JSON grammar (RFC 8259) except that numbers are
/// stored as double and \uXXXX escapes outside the BMP are kept as the
/// two raw surrogate code units encoded in UTF-8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fgqos::util {

/// One parsed JSON value (recursive sum type).
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  /// Parses \p text as one JSON document; throws ConfigError (with byte
  /// offset) on malformed input or trailing garbage.
  static JsonValue parse(const std::string& text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw ConfigError on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// True when the literal was a plain non-negative integer (no sign,
  /// fraction or exponent) that fits a uint64 — kept exactly, because
  /// as_number()'s double loses precision above 2^53.
  [[nodiscard]] bool is_uint64() const { return has_u64_; }
  /// Exact value of such a literal; throws ConfigError when !is_uint64().
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object() const;

  /// Object member access; throws ConfigError when absent or not an object.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Array element access; throws ConfigError when out of range.
  [[nodiscard]] const JsonValue& at(std::size_t index) const;
  /// Array / object element count (0 otherwise).
  [[nodiscard]] std::size_t size() const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool has_u64_ = false;
  double num_ = 0.0;
  std::uint64_t u64_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

/// Escapes \p s for embedding inside a JSON string literal (no quotes
/// added). Shared by every JSON emitter in the codebase.
std::string json_escape(const std::string& s);

// Helpers shared by the JSON spec files (fault plan, serving, bank
// budgets). \p spec names the spec in error messages, e.g. "FaultPlan".

/// Member \p key of \p obj, a microsecond value, in picoseconds. It must
/// be finite, below 1e12 us, and >= 0 (> 0 when \p allow_zero is false).
[[nodiscard]] std::uint64_t get_us_as_ps(const JsonValue& obj,
                                         const char* spec,
                                         const std::string& key,
                                         bool allow_zero = true);
/// Member \p key of \p obj, a non-negative integer. Plain integer
/// literals keep their exact 64-bit value (the double path rounds above
/// 2^53, which would corrupt round-tripped seeds).
[[nodiscard]] std::uint64_t get_u64(const JsonValue& obj, const char* spec,
                                    const std::string& key);
/// Appends \p v as "%.17g", which round-trips every double.
void append_number(std::string& out, double v);
/// Appends \p v exactly: %.17g would route it through double and corrupt
/// values above 2^53, breaking the round trip (get_u64 accepts integers
/// up to 1.8e19).
void append_u64(std::string& out, std::uint64_t v);
/// The whole file at \p path; throws ConfigError(\p error) when it
/// cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& error);

}  // namespace fgqos::util

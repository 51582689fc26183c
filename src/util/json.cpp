#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/time.hpp"
#include "util/config_error.hpp"

namespace fgqos::util {

namespace {

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

}  // namespace

/// Single-pass recursive-descent parser over a borrowed string.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 200;

  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError("JSON parse error at byte " + std::to_string(pos_) +
                      ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) {
      fail("nesting too deep");
    }
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.str_ = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) {
          fail("bad literal");
        }
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        break;
      case 'f':
        if (!consume_literal("false")) {
          fail("bad literal");
        }
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        break;
      case 'n':
        if (!consume_literal("null")) {
          fail("bad literal");
        }
        v.kind_ = JsonValue::Kind::kNull;
        break;
      default: v = parse_number(); break;
    }
    --depth_;
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail("bad escape character");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("bad number");
    }
    auto digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("bad fraction");
      }
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("bad exponent");
      }
      digits();
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.num_ = std::strtod(text_.c_str() + start, nullptr);
    // Exact sidecar for plain unsigned-integer literals: num_ alone would
    // silently round values above 2^53 (e.g. 64-bit fault-plan seeds).
    const std::string token = text_.substr(start, pos_ - start);
    if (token.find_first_not_of("0123456789") == std::string::npos &&
        !token.empty() && token.size() <= 20) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
      if (errno != ERANGE && end != nullptr && *end == '\0') {
        v.u64_ = u;
        v.has_u64_ = true;
      }
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).run();
}

bool JsonValue::as_bool() const {
  config_check(kind_ == Kind::kBool, "JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  config_check(kind_ == Kind::kNumber, "JsonValue: not a number");
  return num_;
}

std::uint64_t JsonValue::as_uint64() const {
  config_check(has_u64_, "JsonValue: not an exact unsigned integer");
  return u64_;
}

const std::string& JsonValue::as_string() const {
  config_check(kind_ == Kind::kString, "JsonValue: not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  config_check(kind_ == Kind::kArray, "JsonValue: not an array");
  return arr_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  config_check(kind_ == Kind::kObject, "JsonValue: not an object");
  return obj_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& o = as_object();
  auto it = o.find(key);
  config_check(it != o.end(), "JsonValue: missing key '" + key + "'");
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return kind_ == Kind::kObject && obj_.count(key) != 0;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  const auto& a = as_array();
  config_check(index < a.size(), "JsonValue: array index out of range");
  return a[index];
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) {
    return arr_.size();
  }
  if (kind_ == Kind::kObject) {
    return obj_.size();
  }
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::uint64_t get_us_as_ps(const JsonValue& obj, const char* spec,
                           const std::string& key, bool allow_zero) {
  const double us = obj.at(key).as_number();
  const std::string where = std::string(spec) + ": '" + key + "'";
  if (allow_zero) {
    config_check(std::isfinite(us) && us >= 0,
                 where + " must be a finite value >= 0");
  } else {
    config_check(std::isfinite(us) && us > 0,
                 where + " must be a finite value > 0");
  }
  config_check(us < 1e12, where + " is implausibly large");
  return static_cast<std::uint64_t>(
      std::llround(us * static_cast<double>(sim::kPsPerUs)));
}

std::uint64_t get_u64(const JsonValue& obj, const char* spec,
                      const std::string& key) {
  const JsonValue& v = obj.at(key);
  if (v.is_uint64()) {
    return v.as_uint64();
  }
  const double d = v.as_number();
  config_check(std::isfinite(d) && d >= 0 && d <= 1.8e19 &&
                   d == std::floor(d),
               std::string(spec) + ": '" + key +
                   "' must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

std::string read_file(const std::string& path, const std::string& error) {
  std::ifstream in(path, std::ios::binary);
  config_check(static_cast<bool>(in), error);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace fgqos::util

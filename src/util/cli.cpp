#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/config_error.hpp"

namespace fgqos::util {

namespace {

/// Silently keeping only the last of "--budget 4 --budget 8" hides typos
/// in scripted sweeps; every option is single-valued, so repeats are
/// always a mistake.
void insert_unique(std::map<std::string, std::string>& values,
                   const std::string& key, std::string value) {
  config_check(values.emplace(key, std::move(value)).second,
               "ArgParser: duplicate option --" + key);
}

}  // namespace

std::size_t parse_count(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 0);
  // strtoull accepts a leading '-' and wraps; a count never has a sign.
  config_check(!text.empty() && text.find_first_of("+-") ==
                                    std::string::npos &&
                   *end == '\0' && errno != ERANGE,
               flag + " expects a non-negative integer, got '" + text + "'");
  return static_cast<std::size_t>(parsed);
}

double parse_number(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  config_check(!text.empty() && *end == '\0',
               flag + " expects a number, got '" + text + "'");
  // ERANGE also flags underflow (tiny values parse to a subnormal or 0,
  // which is fine); only overflow to +/-HUGE_VAL is a real error.
  config_check(errno != ERANGE || std::fabs(parsed) != HUGE_VAL,
               flag + " value out of range: '" + text + "'");
  return parsed;
}

double parse_positive(const std::string& text, const std::string& flag) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  config_check(!text.empty() && *end == '\0' && std::isfinite(parsed) &&
                   parsed > 0,
               flag + " expects a positive number, got '" + text + "'");
  return parsed;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    const std::size_t eq = key.find('=');
    config_check(!key.empty() && eq != 0, "ArgParser: empty option name");
    if (eq != std::string::npos) {
      insert_unique(values_, key.substr(0, eq), key.substr(eq + 1));
      continue;
    }
    // "--key value" when the next token is not an option; bare flag else.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      insert_unique(values_, key, argv[++i]);
    } else {
      insert_unique(values_, key, "");
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  used_[key] = true;
  return values_.count(key) != 0;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& def) const {
  used_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t ArgParser::get_int(const std::string& key,
                                std::int64_t def) const {
  const std::string v = get(key);
  if (v.empty() && !has(key)) {
    return def;
  }
  if (v.empty()) {
    return def;
  }
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 0);
  config_check(end != nullptr && *end == '\0',
               "ArgParser: --" + key + " expects an integer, got '" + v + "'");
  config_check(errno != ERANGE,
               "ArgParser: --" + key + " value out of range: '" + v + "'");
  return parsed;
}

double ArgParser::get_double(const std::string& key, double def) const {
  const std::string v = get(key);
  return v.empty() ? def : parse_number(v, "--" + key);
}

double ArgParser::get_positive(const std::string& key, double def) const {
  const std::string v = get(key);
  return v.empty() ? def : parse_positive(v, "--" + key);
}

std::size_t ArgParser::get_count(const std::string& key,
                                 std::size_t def) const {
  const std::string v = get(key);
  return v.empty() ? def : parse_count(v, "--" + key);
}

bool ArgParser::get_bool(const std::string& key, bool def) const {
  if (!has(key)) {
    return def;
  }
  const std::string v = get(key);
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    return false;
  }
  throw ConfigError("ArgParser: --" + key + " expects a boolean, got '" + v +
                    "'");
}

std::vector<std::string> ArgParser::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (!used_.count(k)) {
      out.push_back(k);
    }
  }
  return out;
}

}  // namespace fgqos::util

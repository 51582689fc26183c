// Fuzz-style robustness tests for the two user-facing parsers:
//  * util/json.hpp — seeded random documents must round-trip through
//    parse -> emit -> parse to a fixpoint, and random mutations / raw
//    garbage must parse-or-reject cleanly (ConfigError, never a crash —
//    the ASan/UBSan CI job is the real assertion here);
//  * util/cli.hpp — random argv vectors must construct-or-reject cleanly
//    and keep the typed getters total.
// Plus pinned regression cases for malformed inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "util/cli.hpp"
#include "util/config_error.hpp"
#include "util/json.hpp"

namespace fgqos {
namespace {

// --------------------------------------------------------------------------
// Random JSON document generator + canonical emitter.
// --------------------------------------------------------------------------

std::string random_string(sim::Xoshiro256& rng) {
  static const char* pieces[] = {"a", "Z", "0", " ", "_", "\\n", "\\t",
                                 "\\\"", "\\\\", "\\u00e9", "\\u0041", "/"};
  std::string out = "\"";
  const std::uint64_t len = rng.next_below(8);
  for (std::uint64_t i = 0; i < len; ++i) {
    out += pieces[rng.next_below(sizeof pieces / sizeof pieces[0])];
  }
  return out + "\"";
}

std::string random_document(sim::Xoshiro256& rng, int depth) {
  switch (rng.next_below(depth >= 4 ? 4 : 6)) {
    case 0: return "null";
    case 1: return rng.next_bool(0.5) ? "true" : "false";
    case 2: {
      const auto v = static_cast<std::int64_t>(rng.next_in(0, 2'000'000)) -
                     1'000'000;
      if (rng.next_bool(0.3)) {
        return std::to_string(v) + "." + std::to_string(rng.next_below(100));
      }
      return std::to_string(v);
    }
    case 3: return random_string(rng);
    case 4: {
      std::string out = "[";
      const std::uint64_t n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) {
          out += ",";
        }
        out += random_document(rng, depth + 1);
      }
      return out + "]";
    }
    default: {
      std::string out = "{";
      const std::uint64_t n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) {
          out += ",";
        }
        out += random_string(rng) + ":" + random_document(rng, depth + 1);
      }
      return out + "}";
    }
  }
}

/// Canonical serialisation: object keys come out in map order, numbers
/// print as integers when integral (else max-precision %g), so
/// emit(parse(x)) is a fixpoint.
std::string emit(const util::JsonValue& v) {
  switch (v.kind()) {
    case util::JsonValue::Kind::kNull: return "null";
    case util::JsonValue::Kind::kBool: return v.as_bool() ? "true" : "false";
    case util::JsonValue::Kind::kNumber: {
      const double d = v.as_number();
      if (std::nearbyint(d) == d && std::fabs(d) < 9e15) {
        return std::to_string(static_cast<long long>(d));
      }
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      return buf;
    }
    case util::JsonValue::Kind::kString:
      return "\"" + util::json_escape(v.as_string()) + "\"";
    case util::JsonValue::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += emit(v.at(i));
      }
      return out + "]";
    }
    case util::JsonValue::Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) {
          out += ",";
        }
        first = false;
        out += "\"" + util::json_escape(k) + "\":" + emit(e);
      }
      return out + "}";
    }
  }
  return "null";
}

TEST(JsonFuzz, RandomDocumentsRoundTripToFixpoint) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sim::Xoshiro256 rng(seed);
    const std::string doc = random_document(rng, 0);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " doc=" + doc);
    const std::string once = emit(util::JsonValue::parse(doc));
    const std::string twice = emit(util::JsonValue::parse(once));
    EXPECT_EQ(once, twice);
  }
}

TEST(JsonFuzz, MutatedDocumentsParseOrRejectCleanly) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sim::Xoshiro256 rng(seed + 1000);
    std::string doc = random_document(rng, 0);
    // A handful of byte-level mutations: overwrite, insert, truncate.
    const std::uint64_t mutations = 1 + rng.next_below(4);
    for (std::uint64_t m = 0; m < mutations && !doc.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(rng.next_below(doc.size()));
      switch (rng.next_below(3)) {
        case 0:
          doc[pos] = static_cast<char>(rng.next_below(256));
          break;
        case 1:
          doc.insert(pos, 1, "{}[],:\"0e-"[rng.next_below(10)]);
          break;
        default:
          doc.resize(pos);
          break;
      }
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    try {
      (void)util::JsonValue::parse(doc);
    } catch (const ConfigError&) {
      // rejection is fine; anything else (crash, other exception) is not
    }
  }
}

TEST(JsonFuzz, RawGarbageParsesOrRejects) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sim::Xoshiro256 rng(seed + 2000);
    std::string doc;
    const std::uint64_t len = rng.next_below(64);
    for (std::uint64_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<char>(rng.next_below(256)));
    }
    try {
      (void)util::JsonValue::parse(doc);
    } catch (const ConfigError&) {
    }
  }
}

TEST(JsonRegression, MalformedInputsRejectWithConfigError) {
  const std::vector<std::string> bad = {
      "",          "{",           "[1,]",        "{\"a\":}",   "tru",
      "nul",       "01x",         "1e",          "-",          "\"\\u12\"",
      "\"\\q\"",   "\"unterminated", "1 2",      "{\"a\" 1}",  "[1 2]",
      "\"\x01\"",  "{1:2}",       "+1",          ".5",         "--1",
      "[,]",       "{,}",         "\xff\xfe",    "{\"a\":1,}",
      std::string(300, '['),  // nesting past the parser's depth cap
      "[" + std::string(998, ' ') + "",
  };
  for (const auto& doc : bad) {
    SCOPED_TRACE(doc.substr(0, 40));
    EXPECT_THROW((void)util::JsonValue::parse(doc), ConfigError);
  }
}

TEST(JsonRegression, EdgeCasesParse) {
  EXPECT_EQ(util::JsonValue::parse("  0  ").as_number(), 0.0);
  EXPECT_EQ(util::JsonValue::parse("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(util::JsonValue::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  // Exactly at the depth cap is fine, one past it is not.
  std::string deep = std::string(199, '[') + "1" + std::string(199, ']');
  EXPECT_NO_THROW((void)util::JsonValue::parse(deep));
}

// --------------------------------------------------------------------------
// CLI fuzz: ArgParser over random argv vectors.
// --------------------------------------------------------------------------

TEST(CliFuzz, RandomArgvConstructsOrRejectsCleanly) {
  static const char* tokens[] = {
      "--",      "--k",     "--k=v",    "pos",   "",      "--=",
      "--a=b=c", "-x",      "--jobs",   "4",     "--k=",  "--0",
      "=",       "--k==v",  "--spaced value",    "--num", "12x",
  };
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sim::Xoshiro256 rng(seed);
    std::vector<std::string> storage = {"prog"};
    const std::uint64_t n = rng.next_below(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      storage.emplace_back(
          tokens[rng.next_below(sizeof tokens / sizeof tokens[0])]);
    }
    std::vector<const char*> argv;
    argv.reserve(storage.size());
    for (const auto& s : storage) {
      argv.push_back(s.c_str());
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    try {
      util::ArgParser args(static_cast<int>(argv.size()), argv.data());
      // Every getter must be total: return or throw ConfigError.
      for (const char* key : {"k", "jobs", "num", "a", "missing"}) {
        try {
          (void)args.get(key);
          (void)args.get_count(key, 1);
          (void)args.get_double(key, 1.0);
          (void)args.get_bool(key, false);
        } catch (const ConfigError&) {
        }
      }
      (void)args.positional();
      (void)args.unused_keys();
    } catch (const ConfigError&) {
    }
  }
}

TEST(CliRegression, MalformedAndCornerArgv) {
  auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return util::ArgParser(static_cast<int>(argv.size()), argv.data());
  };
  // A bare "--" has an empty option name.
  EXPECT_THROW(parse({"--"}), ConfigError);
  EXPECT_THROW(parse({"--=v"}), ConfigError);
  // "--a=b=c" keeps everything after the first '='.
  EXPECT_EQ(parse({"--a=b=c"}).get("a"), "b=c");
  // "--k -x": "-x" is not an option, so it becomes k's value.
  EXPECT_EQ(parse({"--k", "-x"}).get("k"), "-x");
  // "--k --v": both are bare flags.
  {
    const auto args = parse({"--k", "--v"});
    EXPECT_TRUE(args.has("k"));
    EXPECT_TRUE(args.has("v"));
    EXPECT_EQ(args.get("k"), "");
  }
  // Typed getters reject junk but keep defaults for absent keys.
  EXPECT_THROW((void)parse({"--n", "12x"}).get_count("n", 0), ConfigError);
  EXPECT_THROW((void)parse({"--d", "1.2.3"}).get_double("d", 0), ConfigError);
  EXPECT_THROW((void)parse({"--b", "maybe"}).get_bool("b", false), ConfigError);
  EXPECT_EQ(parse({}).get_count("n", 7), 7u);
}

TEST(CliRegression, DuplicateOptionsAreRejected) {
  auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return util::ArgParser(static_cast<int>(argv.size()), argv.data());
  };
  // Repeating a single-valued option is always a scripted-sweep mistake;
  // silently keeping the last value would hide it.
  EXPECT_THROW(parse({"--budget", "4", "--budget", "8"}), ConfigError);
  EXPECT_THROW(parse({"--budget=4", "--budget=8"}), ConfigError);
  EXPECT_THROW(parse({"--flag", "--flag"}), ConfigError);
  EXPECT_THROW(parse({"--k=v", "--k"}), ConfigError);
  try {
    parse({"--budget=4", "--budget", "8"});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate option --budget"),
              std::string::npos);
  }
}

TEST(CliRegression, OutOfRangeValuesNameTheOption) {
  auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return util::ArgParser(static_cast<int>(argv.size()), argv.data());
  };
  try {
    (void)parse({"--n", "99999999999999999999999"}).get_count("n", 0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos);
    EXPECT_NE(what.find("out of range"), std::string::npos);
  }
  try {
    (void)parse({"--d", "1e999"}).get_double("d", 0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--d"), std::string::npos);
    EXPECT_NE(what.find("out of range"), std::string::npos);
  }
  // Negative overflow, and plausibly-large values that still fit: a
  // seed takes the whole 64-bit range.
  EXPECT_THROW(
      (void)parse({"--n=-99999999999999999999999"}).get_count("n", 0),
      ConfigError);
  EXPECT_EQ(parse({"--n", "18446744073709551615"}).get_count("n", 0),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(parse({"--d", "1e300"}).get_double("d", 0), 1e300);
  // strtod flags underflow with the same ERANGE as overflow, but a tiny
  // legitimate magnitude (subnormal or rounded to zero) is valid input.
  EXPECT_GT(parse({"--d", "1e-320"}).get_double("d", 1), 0.0);
  EXPECT_DOUBLE_EQ(parse({"--d", "1e-5000"}).get_double("d", 1), 0.0);
}

TEST(CliFuzz, InjectedDuplicatesAlwaysReject) {
  static const char* keys[] = {"a", "jobs", "budget", "k"};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Xoshiro256 rng(seed + 5000);
    const std::string key = keys[rng.next_below(4)];
    std::vector<std::string> storage = {"prog"};
    const std::uint64_t extra = rng.next_below(4);
    for (std::uint64_t i = 0; i < extra; ++i) {
      storage.push_back("--u" + std::to_string(i));
    }
    // Two occurrences of the same key, in randomly chosen spellings.
    for (int occurrence = 0; occurrence < 2; ++occurrence) {
      const auto pos = 1 + rng.next_below(storage.size());
      if (rng.next_bool(0.5)) {
        storage.insert(storage.begin() + static_cast<std::ptrdiff_t>(pos),
                       "--" + key + "=v");
      } else {
        storage.insert(storage.begin() + static_cast<std::ptrdiff_t>(pos),
                       "--" + key);
      }
    }
    std::vector<const char*> argv;
    argv.reserve(storage.size());
    for (const auto& s : storage) {
      argv.push_back(s.c_str());
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) + " key=" + key);
    EXPECT_THROW(
        util::ArgParser(static_cast<int>(argv.size()), argv.data()),
        ConfigError);
  }
}

}  // namespace
}  // namespace fgqos

#include "common/json.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace copydetect {
namespace {

// --- Construction + Dump ---

TEST(Json, ScalarDumps) {
  EXPECT_EQ(JsonValue::Null().Dump(), "null");
  EXPECT_EQ(JsonValue::Bool(true).Dump(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Dump(), "false");
  EXPECT_EQ(JsonValue::Int64(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue::Uint64(0).Dump(), "0");
  EXPECT_EQ(JsonValue::Str("hi").Dump(), "\"hi\"");
}

TEST(Json, Uint64AboveDoubleRangeIsLossless) {
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  JsonValue v = JsonValue::Uint64(big);
  EXPECT_EQ(v.Dump(), "18446744073709551615");
  uint64_t out = 0;
  EXPECT_TRUE(v.AsUint64(&out));
  EXPECT_EQ(out, big);
}

TEST(Json, DoubleRendersShortestRoundTrip) {
  EXPECT_EQ(JsonValue::Double(0.1).Dump(), "0.1");
  EXPECT_EQ(JsonValue::Double(1.0).Dump(), "1");
  EXPECT_EQ(JsonValue::Double(-2.5).Dump(), "-2.5");
  // The rendered literal must parse back to the exact same double.
  const double tricky = 0.1 + 0.2;
  double round = 0.0;
  ASSERT_TRUE(JsonValue::Double(tricky).AsDouble(&round));
  EXPECT_EQ(round, tricky);
}

// The spellings printf's %g gives at its switch points, kept as they
// are: the sign of zero survives, and small and large magnitudes
// switch to an exponent of at least two digits.
TEST(Json, DoubleKeepsPrintfSpellings) {
  auto render = [](double d) {
    std::string out;
    AppendJsonDouble(d, &out);
    return out;
  };
  EXPECT_EQ(render(-0.0), "-0");
  EXPECT_EQ(render(0.0), "0");
  EXPECT_EQ(render(1e-05), "1e-05");
  EXPECT_EQ(render(0.0001), "0.0001");
  EXPECT_EQ(render(1e+15), "1e+15");
  EXPECT_EQ(render(1e+16), "1e+16");
  EXPECT_EQ(render(1e+17), "1e+17");
  EXPECT_EQ(render(123456.0), "123456");
  // A subnormal stops at its shortest precision; it never falls
  // through to the 17-digit spelling.
  EXPECT_EQ(render(std::numeric_limits<double>::denorm_min()), "5e-324");
  EXPECT_EQ(render(1e-310), "1e-310");
  EXPECT_EQ(render(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(render(-DBL_MIN), "-2.2250738585072014e-308");
  // The tree and the appender spell every number the same way.
  EXPECT_EQ(JsonValue::Double(1e-05).Dump(), "1e-05");
  EXPECT_EQ(JsonValue::Double(-0.0).Dump(), "-0");
}

TEST(Json, NonFiniteDoubleRendersNull) {
  EXPECT_EQ(JsonValue::Double(std::numeric_limits<double>::infinity())
                .Dump(),
            "null");
  EXPECT_EQ(
      JsonValue::Double(std::numeric_limits<double>::quiet_NaN()).Dump(),
      "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonValue::Str("a\"b\\c\n").Dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(JsonValue::Str(std::string("\x01", 1)).Dump(),
            "\"\\u0001\"");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(JsonValue::Str("café").Dump(), "\"café\"");
}

TEST(Json, ObjectKeepsInsertionOrderAndSetOverwritesInPlace) {
  JsonValue obj = JsonValue::Object()
                      .Set("b", JsonValue::Uint64(1))
                      .Set("a", JsonValue::Uint64(2));
  EXPECT_EQ(obj.Dump(), "{\"b\":1,\"a\":2}");
  obj.Set("b", JsonValue::Str("x"));  // overwrite keeps position
  EXPECT_EQ(obj.Dump(), "{\"b\":\"x\",\"a\":2}");
}

TEST(Json, ArrayAndNestedDump) {
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Uint64(1));
  arr.Append(JsonValue::Object().Set("k", JsonValue::Null()));
  EXPECT_EQ(arr.Dump(), "[1,{\"k\":null}]");
}

TEST(Json, RawSplicesVerbatim) {
  JsonValue obj = JsonValue::Object().Set(
      "report", JsonValue::Raw("{\"x\":1.50}"));
  EXPECT_EQ(obj.Dump(), "{\"report\":{\"x\":1.50}}");
}

TEST(Json, AppendJsonStringEscapesInPlace) {
  std::string out = "x";
  AppendJsonString("a\"b\\c\n\x01\x1f\b\f\r\tcaf\xc3\xa9", &out);
  EXPECT_EQ(out,
            "x\"a\\\"b\\\\c\\n\\u0001\\u001f\\b\\f\\r\\tcaf\xc3\xa9\"");
  EXPECT_EQ(JsonEscape("q\"\x7f"), "q\\\"\x7f");  // DEL is not a control
}

// --- The number formatter against the loop it replaced ---

/// The formatter this library used before the to_chars search, kept
/// as the oracle: %.1g, %.2g, ... until strtod reads back the same
/// double, %.17g at the latest.
std::string ReferenceDoubleLiteral(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t ToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Byte-compares AppendJsonDouble with the oracle on every value and
/// returns how many were compared.
size_t ExpectMatchesReference(const std::vector<double>& values) {
  size_t mismatches = 0;
  std::string out;
  for (double d : values) {
    out.clear();
    AppendJsonDouble(d, &out);
    const std::string expected = ReferenceDoubleLiteral(d);
    if (out != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << ToBits(d) << std::dec
                    << ": got " << out << ", oracle " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  return values.size();
}

/// `center` and the `radius` doubles on each side of it, both signs.
void AddNeighbourhood(double center, int radius, std::vector<double>* out) {
  for (double sign : {1.0, -1.0}) {
    const uint64_t bits = ToBits(sign * center);
    for (int k = -radius; k <= radius; ++k) {
      out->push_back(FromBits(bits + static_cast<uint64_t>(k)));
    }
  }
}

// Together the cases below compare about 1.15 million doubles.

TEST(JsonDoubleOracle, RandomBitPatterns) {
  Rng rng(0x5eedf00d);
  std::vector<double> values;
  for (int i = 0; i < 250000; ++i) values.push_back(FromBits(rng.NextU64()));
  // Subnormals: a zero exponent field under a random mantissa.
  for (int i = 0; i < 30000; ++i) {
    values.push_back(FromBits(rng.NextU64() & 0x800fffffffffffffULL));
  }
  EXPECT_EQ(ExpectMatchesReference(values), 280000u);
}

TEST(JsonDoubleOracle, UniformProbabilities) {
  Rng rng(0xfeed);
  std::vector<double> values;
  for (int i = 0; i < 480000; ++i) values.push_back(rng.NextDouble());
  EXPECT_EQ(ExpectMatchesReference(values), 480000u);
}

// A power of two has a rounding interval twice as wide above as below,
// so the correctly rounded %.Pg at the shortest digit count can miss it
// and the search has to go on to P + 1.
TEST(JsonDoubleOracle, PowersOfTwo) {
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    AddNeighbourhood(std::ldexp(1.0, e), 8, &values);
  }
  EXPECT_GT(ExpectMatchesReference(values), 70000u);
}

// Where %g switches between fixed and exponent notation (below 1e-04
// and at 10^P) and the decades around them.
TEST(JsonDoubleOracle, FormatSwitchPoints) {
  std::vector<double> values;
  for (double center : {1e-05, 0.0001, 1e+16, 1e+17}) {
    AddNeighbourhood(center, 12000, &values);
  }
  for (int e = -30; e <= 30; ++e) {
    AddNeighbourhood(std::pow(10.0, e), 500, &values);
  }
  EXPECT_GT(ExpectMatchesReference(values), 200000u);
}

TEST(JsonDoubleOracle, Extremes) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      inf, -inf, std::numeric_limits<double>::quiet_NaN()};
  // The smallest and the largest subnormals, and the largest normals.
  for (uint64_t k = 1; k <= 1000; ++k) {
    values.push_back(FromBits(k));
    values.push_back(FromBits(0x0010000000000000ULL - k));
    values.push_back(FromBits(0x7ff0000000000000ULL - k));
  }
  EXPECT_EQ(ExpectMatchesReference(values), 3011u);
}

// --- Typed lookups ---

TEST(Json, TypedGetters) {
  JsonValue obj = JsonValue::Object()
                      .Set("s", JsonValue::Str("v"))
                      .Set("d", JsonValue::Double(1.5))
                      .Set("u", JsonValue::Uint64(9))
                      .Set("b", JsonValue::Bool(true));
  EXPECT_EQ(obj.GetString("s"), "v");
  EXPECT_EQ(obj.GetDouble("d", 0.0), 1.5);
  EXPECT_EQ(obj.GetUint64("u", 0), 9u);
  EXPECT_TRUE(obj.GetBool("b", false));
  // Absent or wrong kind falls back to the default.
  EXPECT_EQ(obj.GetString("missing", "def"), "def");
  EXPECT_EQ(obj.GetUint64("s", 3), 3u);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

// --- Parse ---

TEST(Json, ParseScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_EQ(ParseJson("\"a\\u0041\"")->text(), "aA");
  uint64_t u = 0;
  EXPECT_TRUE(ParseJson(" 42 ")->AsUint64(&u));
  EXPECT_EQ(u, 42u);
}

TEST(Json, ParseSurrogatePair) {
  auto v = ParseJson("\"\\ud83d\\ude00\"");  // 😀
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->text(), "\xF0\x9F\x98\x80");
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("01").ok());          // leading zero
  EXPECT_FALSE(ParseJson("1 2").ok());         // trailing garbage
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("\"\\x41\"").ok());   // bad escape
  EXPECT_FALSE(ParseJson("nulL").ok());
}

TEST(Json, ParseErrorNamesByteOffset) {
  auto v = ParseJson("[1,@]");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("byte 3"), std::string::npos)
      << v.status().ToString();
}

TEST(Json, ParseBoundsNestingDepth) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
}

// --- The byte-stability contract the serving recovery smoke rests on:
// Parse(Dump(x)) dumps back to the exact same bytes, including number
// literals that a double round trip would rewrite. ---

TEST(Json, ParseDumpRoundTripIsByteIdentical) {
  const std::string canonical =
      "{\"detector\":\"hybrid\",\"accuracy\":0.8714285714285714,"
      "\"n\":50,\"big\":18446744073709551615,\"exp\":1e-9,"
      "\"trailing\":1.50,\"list\":[null,true,\"\\u0001é\"]}";
  auto parsed = ParseJson(canonical);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), canonical);
  // And a second generation stays fixed.
  EXPECT_EQ(ParseJson(parsed->Dump())->Dump(), canonical);
}

}  // namespace
}  // namespace copydetect

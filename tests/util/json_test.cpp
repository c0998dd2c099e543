#include "util/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "test_util.h"

namespace photodtn {
namespace {

TEST(Json, EmptyObjectAndArray) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
  JsonWriter a;
  a.begin_array().end_array();
  EXPECT_EQ(a.str(), "[]");
}

TEST(Json, KeyValuePairsWithCommas) {
  JsonWriter w;
  w.begin_object().kv("a", std::int64_t{1}).kv("b", std::string("x")).end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":\"x\"}");
}

TEST(Json, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("list").begin_array().value(std::int64_t{1}).value(std::int64_t{2}).end_array();
  w.key("obj").begin_object().kv("c", true).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"list\":[1,2],\"obj\":{\"c\":true}}");
}

TEST(Json, StringEscaping) {
  JsonWriter w;
  w.begin_object().kv("s", std::string("a\"b\\c\nd\te")).end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, ControlCharactersBecomeUnicodeEscapes) {
  JsonWriter w;
  w.begin_object().kv("s", std::string("x\x01y\x1f\x7f")).end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"x\\u0001y\\u001f\x7f\"}");
}

TEST(Json, KeysAreEscapedLikeValues) {
  JsonWriter w;
  w.begin_object().kv("a\"b\n", true).end_object();
  EXPECT_EQ(w.str(), "{\"a\\\"b\\n\":true}");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::nan(""))
      .value(std::numeric_limits<double>::infinity())
      .value(1.5)
      .end_array();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(Json, DoubleRoundTripPrecision) {
  JsonWriter w;
  const double v = 0.1 + 0.2;
  w.begin_array().value(v).end_array();
  const std::string s = w.str();
  const double back = std::stod(s.substr(1, s.size() - 2));
  EXPECT_EQ(back, v);
}

TEST(Json, KvArrayHelper) {
  JsonWriter w;
  w.begin_object().kv_array("xs", {1.0, 2.5}).end_object();
  EXPECT_EQ(w.str(), "{\"xs\":[1,2.5]}");
}

TEST(Json, BoolAndNull) {
  JsonWriter w;
  w.begin_array().value(false).null().value(true).end_array();
  EXPECT_EQ(w.str(), "[false,null,true]");
}

std::string printf_17g(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

std::string written(double d) {
  JsonWriter w;
  w.value(d);
  return std::move(w).str();
}

TEST(Json, DoublesMatchPrintf17gOnEdgeValues) {
  const double two53 = std::ldexp(1.0, 53);
  const double edges[] = {0.0,
                          -0.0,
                          5e-324,
                          -5e-324,
                          DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          1e16,
                          1e17,
                          1e21,
                          1e-7,
                          0.1 + 0.2,
                          1.0,
                          123456789.0,
                          -1234.5,
                          // Around the integer path's bound (1e15) and 2^53.
                          -1.0,
                          1e15 - 1,
                          -(1e15 - 1),
                          1e15 - 0.5,
                          1e15,
                          -1e15,
                          two53 - 1,
                          -(two53 - 1),
                          two53,
                          two53 + 1,
                          -(two53 + 1),
                          two53 + 2,
                          -1e16,
                          -1e17};
  for (const double d : edges) EXPECT_EQ(written(d), printf_17g(d)) << printf_17g(d);
}

TEST(Json, DoublesMatchPrintf17gOnRandomBitPatterns) {
  std::mt19937_64 gen(20260117);
  int compared = 0;
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t bits = gen();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (!std::isfinite(d)) {
      EXPECT_EQ(written(d), "null");
      continue;
    }
    ASSERT_EQ(written(d), printf_17g(d)) << "bits " << bits;
    ++compared;
  }
  EXPECT_GT(compared, 99'000);
}

TEST(Json, IntegerValuedDoublesMatchPrintf17gInEveryDecade) {
  std::mt19937_64 gen(20261019);
  std::uint64_t low = 1;
  for (int decade = 0; decade <= 18; ++decade, low *= 10) {
    std::uniform_int_distribution<std::uint64_t> in_decade(low, low * 10 - 1);
    for (int i = 0; i < 2'000; ++i) {
      const double magnitude = static_cast<double>(in_decade(gen));
      const double d = (gen() & 1) != 0 ? -magnitude : magnitude;
      ASSERT_EQ(written(d), printf_17g(d)) << "decade " << decade;
    }
  }
}

/// What the writer must produce for `s` as a JSON string: the escapes of
/// the byte contract, one character at a time.
std::string json_quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

TEST(Json, EscapeStraddlingABufferFlushIsWrittenWhole) {
  // The padding moves the escapes across the staging buffer's end: at some
  // padding each escape is the token that does not fit.
  const std::string escaped = "a\x01\"\\\n\x1f";
  constexpr std::size_t kBuffer = JsonWriter::kBufferBytes;
  for (std::size_t pad = kBuffer - 24; pad <= kBuffer + 8; ++pad) {
    JsonWriter w;
    w.begin_array().value(std::string(pad, 'x'));
    for (int i = 0; i < 3; ++i) w.value(escaped).value(std::uint64_t{7});
    w.end_array();
    std::string want = "[" + json_quoted(std::string(pad, 'x'));
    for (int i = 0; i < 3; ++i) want += "," + json_quoted(escaped) + ",7";
    ASSERT_EQ(w.str(), want + "]") << "pad " << pad;
  }
}

TEST(Json, KeysAndStringsLongerThanTheBuffer) {
  std::string plain(3 * JsonWriter::kBufferBytes + 5, 'p');
  std::string escaped = plain;
  for (std::size_t i = 0; i < escaped.size(); i += 301) escaped[i] = i % 2 ? '"' : '\x02';
  // Around the one-memcpy path's limit: with its separator, quotes and
  // colon, the longer key would overflow an empty buffer.
  const std::string fits(JsonWriter::kBufferBytes - 4, 'f');
  const std::string overflows(JsonWriter::kBufferBytes - 3, 'o');
  JsonWriter w;
  w.begin_object()
      .kv(plain, escaped)
      .kv(escaped, plain)
      .kv(fits, overflows)
      .kv(overflows, fits)
      .kv("k", std::uint64_t{1})
      .end_object();
  EXPECT_EQ(w.str(), "{" + json_quoted(plain) + ":" + json_quoted(escaped) + "," +
                         json_quoted(escaped) + ":" + json_quoted(plain) + "," +
                         json_quoted(fits) + ":" + json_quoted(overflows) + "," +
                         json_quoted(overflows) + ":" + json_quoted(fits) + ",\"k\":1}");
}

TEST(Json, NestingUpToTheDeepestLevelAndNoDeeper) {
  // Elements before and after the nested container at every level:
  // [0,{"d":1,"k":[2,...],"z":1}].
  JsonWriter w;
  std::string want;
  for (int depth = 0; depth < JsonWriter::kMaxDepth; ++depth) {
    if (depth % 2 == 0) {
      w.begin_array().value(std::int64_t{depth});
      want += "[" + std::to_string(depth) + ",";
    } else {
      w.begin_object().kv("d", std::int64_t{depth}).key("k");
      want += "{\"d\":" + std::to_string(depth) + ",\"k\":";
    }
  }
  EXPECT_THROW(w.begin_array(), std::logic_error);
  EXPECT_THROW(w.begin_object(), std::logic_error);
  w.value(true);
  want += "true";
  for (int depth = JsonWriter::kMaxDepth - 1; depth >= 0; --depth) {
    if (depth % 2 == 0) {
      w.end_array();
      want += "]";
    } else {
      w.kv("z", std::int64_t{depth}).end_object();
      want += ",\"z\":" + std::to_string(depth) + "}";
    }
  }
  EXPECT_EQ(w.str(), want);
}

TEST(Json, IntegerExtremesMatchToString) {
  for (const std::int64_t i : {std::numeric_limits<std::int64_t>::min(), std::int64_t{-1},
                               std::int64_t{0}, std::numeric_limits<std::int64_t>::max()}) {
    JsonWriter w;
    w.value(i);
    EXPECT_EQ(w.str(), std::to_string(i));
  }
  for (const std::uint64_t u : {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()}) {
    JsonWriter w;
    w.value(u);
    EXPECT_EQ(w.str(), std::to_string(u));
  }
}

TEST(Json, JsonLinesRecordsHaveNoCommaBetweenThem) {
  JsonWriter w;
  w.begin_object().kv("a", std::int64_t{1}).end_object().end_record();
  w.begin_object().kv("b", std::int64_t{2}).kv("c", false).end_object().end_record();
  w.begin_array().value(1.5).end_array().end_record();
  EXPECT_EQ(std::move(w).str(), "{\"a\":1}\n{\"b\":2,\"c\":false}\n[1.5]\n");
}

TEST(Json, OutputIgnoresTheGlobalLocale) {
  const auto document = [] {
    JsonWriter w;
    w.begin_object()
        .kv("n", std::uint64_t{1'234'567})
        .kv("x", 1234.5)
        .kv("i", std::int64_t{-7'654'321})
        .end_object();
    return std::move(w).str();
  };
  const std::string expected = "{\"n\":1234567,\"x\":1234.5,\"i\":-7654321}";
  ASSERT_EQ(document(), expected);
  const test::GroupingLocaleScope grouping;
  EXPECT_EQ(document(), expected);
}

}  // namespace
}  // namespace photodtn

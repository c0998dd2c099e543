#include "util/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
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
                          -1234.5};
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

#include "util/args.h"

#include <gtest/gtest.h>

#include <array>

namespace photodtn {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, CommandAndPositionals) {
  const Args a = parse({"trace-stats", "file1.csv", "file2.csv"});
  EXPECT_EQ(a.command(), "trace-stats");
  ASSERT_EQ(a.positionals().size(), 2u);
  EXPECT_EQ(a.positionals()[0], "file1.csv");
}

TEST(Args, KeyValueOptions) {
  const Args a = parse({"simulate", "--runs", "5", "--scheme", "OurScheme"});
  EXPECT_EQ(a.get_int("runs", 1), 5);
  EXPECT_EQ(a.get("scheme", ""), "OurScheme");
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
}

TEST(Args, BooleanFlags) {
  const Args a = parse({"simulate", "--verbose", "--runs", "2"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("verbose", ""), "true");
  EXPECT_EQ(a.get_int("runs", 0), 2);
}

TEST(Args, TrailingFlagIsBoolean) {
  const Args a = parse({"simulate", "--dry-run"});
  EXPECT_TRUE(a.has("dry-run"));
}

TEST(Args, TypedGettersValidate) {
  const Args a = parse({"simulate", "--runs", "abc", "--scale", "0.5x"});
  EXPECT_THROW(a.get_int("runs", 1), std::exception);
  EXPECT_THROW(a.get_double("scale", 1.0), std::exception);
  // NaN fails every range comparison and inf passes ">= 0", so non-finite
  // values are refused here, naming the option.
  const Args b = parse({"simulate", "--scale", "nan", "--hours", "inf", "--rate",
                        "-inf", "--p-thld", "NaN", "--storage-gb", "infinity"});
  for (const char* key : {"scale", "hours", "rate", "p-thld", "storage-gb"}) {
    try {
      (void)b.get_double(key, 1.0);
      ADD_FAILURE() << "--" << key << " accepted a non-finite value";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key + " expects a finite"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Args, DoubleParsing) {
  const Args a = parse({"simulate", "--scale", "0.25"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 1.0), 0.25);
}

TEST(Args, UnusedKeysDetectTypos) {
  const Args a = parse({"simulate", "--runs", "3", "--typo-flag", "x"});
  (void)a.get_int("runs", 1);
  const auto unused = a.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo-flag");
}

TEST(Args, EmptyOptionNameRejected) {
  EXPECT_THROW(parse({"cmd", "--"}), std::runtime_error);
}

TEST(Args, NoArguments) {
  const Args a = parse({});
  EXPECT_TRUE(a.command().empty());
  EXPECT_TRUE(a.positionals().empty());
}

TEST(Args, SingleDashOptionsRejected) {
  // Options are spelled --name; a single-dash token is a typo, not a
  // positional, and must fail parsing rather than ride along silently.
  EXPECT_THROW(parse({"simulate", "-runs", "3"}), std::runtime_error);
  EXPECT_THROW(parse({"simulate", "-h"}), std::runtime_error);
  try {
    parse({"simulate", "-x"});
    FAIL() << "single-dash option was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("-x"), std::string::npos);
  }
}

TEST(Args, LoneDashIsAPositional) {
  // A bare "-" conventionally means stdin/stdout; keep it as a positional.
  const Args a = parse({"cmd", "-"});
  ASSERT_EQ(a.positionals().size(), 1u);
  EXPECT_EQ(a.positionals()[0], "-");
}

TEST(Args, MalformedValuesNameTheOption) {
  const Args a = parse({"simulate", "--runs", "1x", "--scale", "zero"});
  try {
    (void)a.get_int("runs", 1);
    FAIL() << "trailing junk accepted as integer";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--runs"), std::string::npos);
    EXPECT_NE(what.find("1x"), std::string::npos);
  }
  try {
    (void)a.get_double("scale", 1.0);
    FAIL() << "non-numeric accepted as double";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--scale"), std::string::npos);
    EXPECT_NE(what.find("zero"), std::string::npos);
  }
}

TEST(Args, IntegerOverflowRejected) {
  const Args a = parse({"simulate", "--runs", "99999999999999999999999999"});
  EXPECT_THROW(a.get_int("runs", 1), std::runtime_error);
}

}  // namespace
}  // namespace photodtn

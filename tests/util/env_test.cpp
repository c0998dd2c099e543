#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

namespace photodtn {
namespace {

/// `read` must throw std::invalid_argument with exactly `message`.
void expect_rejected(const std::function<void()>& read, const std::string& message) {
  try {
    read();
    ADD_FAILURE() << "accepted: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(Env, FallbackWhenUnset) {
  unsetenv("PHOTODTN_TEST_UNSET");
  EXPECT_EQ(env_int("PHOTODTN_TEST_UNSET", 7, 1, 10), 7);
  EXPECT_DOUBLE_EQ(env_double("PHOTODTN_TEST_UNSET", 2.5, 0.0, 5.0), 2.5);
}

TEST(Env, ParsesValidValues) {
  setenv("PHOTODTN_TEST_INT", "123", 1);
  setenv("PHOTODTN_TEST_DBL", "0.75", 1);
  EXPECT_EQ(env_int("PHOTODTN_TEST_INT", 0, 0, 1000), 123);
  EXPECT_DOUBLE_EQ(env_double("PHOTODTN_TEST_DBL", 0.0, 0.0, 1.0), 0.75);
  // Both ends of the range are inside it.
  EXPECT_EQ(env_int("PHOTODTN_TEST_INT", 0, 123, 123), 123);
  EXPECT_DOUBLE_EQ(env_double("PHOTODTN_TEST_DBL", 0.0, 0.75, 0.75), 0.75);
  EXPECT_EQ(parse_env_int("X", "-3", -3, 0), -3);
  unsetenv("PHOTODTN_TEST_INT");
  unsetenv("PHOTODTN_TEST_DBL");
}

TEST(Env, FallbackOnGarbage) {
  // A value that does not parse whole no longer falls back to the default:
  // it fails, naming the variable, the value and the range.
  setenv("PHOTODTN_TEST_BAD", "12abc", 1);
  expect_rejected([] { env_int("PHOTODTN_TEST_BAD", -1, -5, 100); },
                  "PHOTODTN_TEST_BAD=12abc is not an integer in [-5, 100]");
  expect_rejected([] { env_double("PHOTODTN_TEST_BAD", -2.0, -5.0, 0.5); },
                  "PHOTODTN_TEST_BAD=12abc is not a number in [-5, 0.5]");
  unsetenv("PHOTODTN_TEST_BAD");
}

TEST(Env, RejectsValuesOutsideTheRange) {
  for (const char* bad : {"0", "5001", "5O", " 3", "+3", "3.0", "99999999999999999999"}) {
    setenv("PHOTODTN_TEST_RUNS", bad, 1);
    expect_rejected([] { env_int("PHOTODTN_TEST_RUNS", 3, 1, 5000); },
                    std::string("PHOTODTN_TEST_RUNS=") + bad +
                        " is not an integer in [1, 5000]");
  }
  for (const char* bad : {"5", "0.001", "-0.3", "nan", "inf", "0.3x", "0x1p-2"}) {
    setenv("PHOTODTN_TEST_SCALE", bad, 1);
    expect_rejected([] { env_double("PHOTODTN_TEST_SCALE", 0.3, 0.01, 1.0); },
                    std::string("PHOTODTN_TEST_SCALE=") + bad +
                        " is not a number in [0.01, 1]");
  }
  unsetenv("PHOTODTN_TEST_RUNS");
  unsetenv("PHOTODTN_TEST_SCALE");
}

TEST(Env, EmptyStringFallsBack) {
  setenv("PHOTODTN_TEST_EMPTY", "", 1);
  EXPECT_EQ(env_int("PHOTODTN_TEST_EMPTY", 9, 0, 1), 9);
  EXPECT_DOUBLE_EQ(env_double("PHOTODTN_TEST_EMPTY", 0.3, 0.01, 1.0), 0.3);
  unsetenv("PHOTODTN_TEST_EMPTY");
}

}  // namespace
}  // namespace photodtn

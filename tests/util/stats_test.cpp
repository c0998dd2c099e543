#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace photodtn {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i * 0.7) * 10.0;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(SeriesStats, AveragesAcrossRuns) {
  SeriesStats s;
  s.add_series({1.0, 2.0, 3.0});
  s.add_series({3.0, 4.0, 5.0});
  EXPECT_EQ(s.runs(), 2u);
  const auto m = s.means();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[1], 3.0);
  EXPECT_DOUBLE_EQ(m[2], 4.0);
}

TEST(SeriesStats, RejectsLengthMismatch) {
  SeriesStats s;
  s.add_series({1.0, 2.0});
  EXPECT_THROW(s.add_series({1.0}), std::logic_error);
}

TEST(SeriesStats, Ci95ShrinksWithRuns) {
  SeriesStats few, many;
  for (int r = 0; r < 3; ++r) few.add_series({static_cast<double>(r)});
  for (int r = 0; r < 30; ++r) many.add_series({static_cast<double>(r % 3)});
  EXPECT_GT(few.ci95()[0], many.ci95()[0]);
}

}  // namespace
}  // namespace photodtn

#include "geometry/arc_set.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/angle.h"
#include "util/rng.h"

namespace photodtn {
namespace {

constexpr double kTol = 1e-9;

TEST(ArcSet, EmptyHasZeroMeasure) {
  ArcSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.measure(), 0.0);
  EXPECT_FALSE(s.contains(1.0));
  EXPECT_FALSE(s.full());
}

TEST(ArcSet, SingleArc) {
  ArcSet s;
  s.add({1.0, 0.5});
  EXPECT_NEAR(s.measure(), 0.5, kTol);
  EXPECT_TRUE(s.contains(1.25));
  EXPECT_TRUE(s.contains(1.0));   // boundary inclusive
  EXPECT_TRUE(s.contains(1.5));   // boundary inclusive
  EXPECT_FALSE(s.contains(0.9));
  EXPECT_FALSE(s.contains(1.6));
}

TEST(ArcSet, OverlappingArcsMerge) {
  ArcSet s;
  s.add({1.0, 0.5});
  s.add({1.3, 0.5});
  EXPECT_NEAR(s.measure(), 0.8, kTol);
  EXPECT_EQ(s.intervals().size(), 1u);
}

TEST(ArcSet, DisjointArcsStaySeparate) {
  ArcSet s;
  s.add({0.0, 0.5});
  s.add({2.0, 0.5});
  EXPECT_NEAR(s.measure(), 1.0, kTol);
  EXPECT_EQ(s.intervals().size(), 2u);
  EXPECT_FALSE(s.contains(1.0));
}

TEST(ArcSet, WrappingArcCoversBothSides) {
  ArcSet s;
  s.add({kTwoPi - 0.2, 0.5});  // wraps: [2*pi-0.2, 2*pi) U [0, 0.3)
  EXPECT_NEAR(s.measure(), 0.5, kTol);
  EXPECT_TRUE(s.contains(kTwoPi - 0.1));
  EXPECT_TRUE(s.contains(0.1));
  EXPECT_FALSE(s.contains(1.0));
}

TEST(ArcSet, NegativeStartNormalizes) {
  ArcSet s;
  s.add(Arc::centered(0.0, 0.25));  // [-0.25, 0.25]
  EXPECT_NEAR(s.measure(), 0.5, kTol);
  EXPECT_TRUE(s.contains(kTwoPi - 0.1));
  EXPECT_TRUE(s.contains(0.1));
}

TEST(ArcSet, FullCircle) {
  ArcSet s;
  s.add({0.3, kTwoPi});
  EXPECT_TRUE(s.full());
  EXPECT_NEAR(s.measure(), kTwoPi, kTol);
  for (const double a : {0.0, 1.0, 3.0, 6.0}) EXPECT_TRUE(s.contains(a));
}

TEST(ArcSet, ZeroLengthArcIgnored) {
  ArcSet s;
  s.add({1.0, 0.0});
  EXPECT_TRUE(s.empty());
}

TEST(ArcSet, MeasureNeverExceedsTwoPi) {
  ArcSet s;
  for (int i = 0; i < 20; ++i) s.add({i * 0.3, 1.0});
  EXPECT_LE(s.measure(), kTwoPi + kTol);
  EXPECT_TRUE(s.full());
}

TEST(ArcSet, GainOfDisjointArcIsItsLength) {
  ArcSet s;
  s.add({0.0, 0.5});
  EXPECT_NEAR(s.gain({2.0, 0.7}), 0.7, kTol);
}

TEST(ArcSet, GainOfContainedArcIsZero) {
  ArcSet s;
  s.add({1.0, 1.0});
  EXPECT_NEAR(s.gain({1.2, 0.5}), 0.0, kTol);
}

TEST(ArcSet, GainOfPartialOverlap) {
  ArcSet s;
  s.add({1.0, 1.0});  // [1, 2]
  EXPECT_NEAR(s.gain({1.5, 1.0}), 0.5, kTol);  // [1.5, 2.5] adds [2, 2.5]
}

TEST(ArcSet, GainMatchesAddDelta) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    ArcSet s;
    const int n = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < n; ++i)
      s.add({rng.uniform(0.0, kTwoPi), rng.uniform(0.0, 2.0)});
    const Arc a{rng.uniform(-kTwoPi, 2 * kTwoPi), rng.uniform(0.0, kTwoPi)};
    const double predicted = s.gain(a);
    const double before = s.measure();
    s.add(a);
    EXPECT_NEAR(s.measure() - before, predicted, 1e-7) << "trial " << trial;
  }
}

TEST(ArcSet, UniteEqualsSequentialAdds) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    ArcSet a, b, both;
    for (int i = 0; i < 4; ++i) {
      const Arc arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.0, 1.5)};
      a.add(arc);
      both.add(arc);
    }
    for (int i = 0; i < 4; ++i) {
      const Arc arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.0, 1.5)};
      b.add(arc);
      both.add(arc);
    }
    a.unite(b);
    EXPECT_NEAR(a.measure(), both.measure(), 1e-9);
  }
}

TEST(ArcSet, OverlapLinearBasics) {
  ArcSet s;
  s.add({1.0, 1.0});  // [1, 2]
  EXPECT_NEAR(s.overlap_linear(0.0, 3.0), 1.0, kTol);
  EXPECT_NEAR(s.overlap_linear(1.5, 3.0), 0.5, kTol);
  EXPECT_NEAR(s.overlap_linear(0.0, 0.5), 0.0, kTol);
  EXPECT_NEAR(s.overlap_linear(1.2, 1.4), 0.2, kTol);
}

TEST(ArcSet, BoundariesSortedAndNormalized) {
  ArcSet s;
  s.add({5.5, 1.5});  // wraps
  s.add({2.0, 0.5});
  std::vector<double> b;
  s.append_boundaries(b);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  for (const double v : b) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, kTwoPi);
  }
}

TEST(ArcSet, ContainmentConsistentWithMeasureViaSampling) {
  // Property: measure == integral of the indicator function (within grid
  // resolution) for random sets.
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    ArcSet s;
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < n; ++i)
      s.add({rng.uniform(0.0, kTwoPi), rng.uniform(0.1, 2.0)});
    const int grid = 3000;
    int covered = 0;
    for (int g = 0; g < grid; ++g)
      if (s.contains((g + 0.5) * kTwoPi / grid)) ++covered;
    const double sampled = covered * kTwoPi / grid;
    EXPECT_NEAR(sampled, s.measure(), kTwoPi / grid * n * 2 + 1e-6) << trial;
  }
}

struct ArcCase {
  double center_deg;
  double half_width_deg;
};

class ArcCenteredSweep : public ::testing::TestWithParam<ArcCase> {};

TEST_P(ArcCenteredSweep, CenteredArcContainsCenterAndHasWidth) {
  const auto [center_deg, half_deg] = GetParam();
  const double c = deg_to_rad(center_deg);
  const double h = deg_to_rad(half_deg);
  ArcSet s;
  s.add(Arc::centered(c, h));
  EXPECT_TRUE(s.contains(c));
  EXPECT_TRUE(s.contains(c + h * 0.99));
  EXPECT_TRUE(s.contains(c - h * 0.99));
  if (2 * h < kTwoPi - 1e-6) {
    EXPECT_FALSE(s.contains(c + h + 0.01));
  }
  EXPECT_NEAR(s.measure(), std::min(2 * h, kTwoPi), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Arcs, ArcCenteredSweep,
                         ::testing::Values(ArcCase{0.0, 30.0}, ArcCase{90.0, 30.0},
                                           ArcCase{180.0, 45.0}, ArcCase{359.0, 30.0},
                                           ArcCase{5.0, 40.0}, ArcCase{270.0, 90.0},
                                           ArcCase{45.0, 180.0}));

TEST(ArcSetAudit, HoldsUnderRandomAddsAndUnions) {
  // Property: after any sequence of adds (including wrapping and tiny arcs)
  // the canonical form stays sorted, disjoint, normalized, and bounded by the
  // circle — the invariants audit() asserts.
  Rng rng(20260806);
  for (int rep = 0; rep < 50; ++rep) {
    ArcSet s;
    for (int i = 0; i < 40; ++i) {
      const double start = rng.uniform(-10.0, 10.0);  // any finite start
      const double length = rng.bernoulli(0.1) ? rng.uniform(0.0, 1e-11)
                                               : rng.uniform(0.0, kTwoPi * 1.2);
      s.add(Arc{start, length});
      ASSERT_NO_THROW(s.audit());
    }
    ArcSet other;
    for (int i = 0; i < 10; ++i)
      other.add(Arc::centered(rng.uniform(0.0, kTwoPi), rng.uniform(0.0, 1.5)));
    s.unite(other);
    ASSERT_NO_THROW(s.audit());
    ASSERT_NO_THROW(other.audit());
  }
}

TEST(ArcSetAudit, EmptyAndFullSetsPass) {
  ArcSet empty;
  EXPECT_NO_THROW(empty.audit());
  ArcSet full;
  full.add(Arc{0.3, kTwoPi + 1.0});
  EXPECT_TRUE(full.full());
  EXPECT_NO_THROW(full.audit());
}

}  // namespace
}  // namespace photodtn

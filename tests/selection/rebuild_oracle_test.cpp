// The in-place arc insertion and PoI rebuild against the copying and
// allocating originals kept in reference_selection.h: every result must be
// the same bits. The prefix-sum integral is held against the reference's
// per-segment scan to floating-point dust.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/angle.h"
#include "selection/reference_selection.h"
#include "selection/selection_env.h"
#include "util/rng.h"

namespace photodtn {
namespace {

using test::Intervals;
using test::ReferencePiecewiseMiss;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_intervals(const ArcSet& got, const Intervals& want, int trial,
                           int step) {
  ASSERT_EQ(got.intervals().size(), want.size()) << trial << "," << step;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bits(got.intervals()[i].first), bits(want[i].first))
        << trial << "," << step << "," << i;
    EXPECT_EQ(bits(got.intervals()[i].second), bits(want[i].second))
        << trial << "," << step << "," << i;
  }
}

/// A random arc, drawn to hit the insertion edge cases: sub-epsilon
/// lengths, near-full and full circles, wrapping starts, and arcs that
/// start or end within the merge epsilon of an existing interval.
Arc random_arc(Rng& rng, const ArcSet& existing) {
  const double pick = rng.uniform(0.0, 1.0);
  if (pick < 0.05) return Arc{rng.uniform(-10.0, 10.0), rng.uniform(0.0, 2e-12)};
  if (pick < 0.08) return Arc{rng.uniform(-10.0, 10.0), kTwoPi - rng.uniform(0.0, 2e-12)};
  if (pick < 0.25 && !existing.empty()) {
    const auto& iv = existing.intervals();
    const auto& [s, e] = iv[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(iv.size()) - 1))];
    const double jitter = rng.uniform(-2e-12, 2e-12);
    return rng.uniform(0.0, 1.0) < 0.5 ? Arc{e + jitter, rng.uniform(0.01, 0.8)}
                                       : Arc{s - 0.3 + jitter, 0.3};
  }
  return Arc{rng.uniform(-10.0, 20.0), rng.uniform(0.0, 2.5)};
}

TEST(RebuildOracle, ArcInsertionMatchesCopyingInsertBitwise) {
  Rng rng(1601);
  for (int trial = 0; trial < 300; ++trial) {
    ArcSet set;
    Intervals ref;
    const int steps = static_cast<int>(rng.uniform_int(1, 30));
    for (int step = 0; step < steps; ++step) {
      if (rng.uniform(0.0, 1.0) < 0.2) {
        ArcSet other;
        Intervals other_ref;
        const int n = static_cast<int>(rng.uniform_int(0, 6));
        for (int k = 0; k < n; ++k) {
          const Arc a = random_arc(rng, other);
          other.add(a);
          test::reference_add(other_ref, a);
        }
        expect_same_intervals(other, other_ref, trial, step);
        set.unite(other);
        test::reference_unite(ref, other_ref);
      } else {
        const Arc a = random_arc(rng, set);
        set.add(a);
        test::reference_add(ref, a);
      }
      expect_same_intervals(set, ref, trial, step);
      set.audit();
    }
  }
}

enum class Kind { kDense, kSparse, kConstant };

/// A random cover list of the given kind. Dense lists usually reach 32 or
/// more segments; constant ones have no boundaries at all (nothing, or full
/// circles only).
std::vector<NodePoiCover> random_covers(Rng& rng, Kind kind) {
  std::vector<NodePoiCover> covers;
  auto p = [&rng] {
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.1) return 1.0;  // the command center: a zero factor
    if (pick < 0.15) return 0.0;
    return rng.uniform(0.01, 0.99);
  };
  NodeId node = 0;
  if (kind == Kind::kConstant) {
    const int n = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < n; ++i) {
      NodePoiCover c{node++, p(), {}};
      c.arcs.add(Arc{rng.uniform(0.0, kTwoPi), kTwoPi});
      covers.push_back(std::move(c));
    }
    return covers;
  }
  const int n = kind == Kind::kDense ? static_cast<int>(rng.uniform_int(12, 30))
                                     : static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n; ++i) {
    NodePoiCover c{node++, p(), {}};
    const int arcs = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < arcs; ++k)
      c.arcs.add(Arc{rng.uniform(-1.0, 7.0), rng.uniform(0.05, 1.2)});
    // Gossip puts the same photos in several collections: share some sets.
    if (!covers.empty() && rng.uniform(0.0, 1.0) < 0.2) c.arcs = covers.back().arcs;
    covers.push_back(std::move(c));
  }
  return covers;
}

std::shared_ptr<AspectProfile> random_profile(Rng& rng) {
  auto profile = std::make_shared<AspectProfile>();
  const int bands = static_cast<int>(rng.uniform_int(1, 3));
  for (int b = 0; b < bands; ++b)
    profile->set_band(Arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.2, 2.5)},
                      rng.uniform(0.0, 4.0));
  return profile;
}

/// The engine's view of owning cover entries.
std::vector<CoverView> views_of(const std::vector<NodePoiCover>& covers) {
  std::vector<CoverView> views;
  for (const NodePoiCover& c : covers) views.push_back({c.node, c.p, c.arcs.intervals()});
  return views;
}

void expect_same_function(const PiecewiseMiss& got, const ReferencePiecewiseMiss& want,
                          int step) {
  ASSERT_EQ(got.segment_count(), want.segment_count()) << step;
  EXPECT_EQ(bits(got.full_integral()), bits(want.full_integral())) << step;
  std::vector<double> probes{0.0, 1.0, kTwoPi - 1e-9};
  const std::vector<double>& cuts = want.cuts();
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const double hi = k + 1 < cuts.size() ? cuts[k + 1] : kTwoPi;
    probes.push_back(cuts[k]);
    probes.push_back(cuts[k] + (hi - cuts[k]) / 2.0);
  }
  for (const double x : probes) {
    EXPECT_EQ(bits(got.value_at(x)), bits(want.value_at(x))) << step << " at " << x;
    EXPECT_EQ(bits(got.integral(0.0, x)), bits(want.integral(0.0, x)))
        << step << " at " << x;
    EXPECT_EQ(bits(got.integral(x, kTwoPi)), bits(want.integral(x, kTwoPi)))
        << step << " at " << x;
  }
}

/// integrate_excluding against the reference's per-segment scan on random
/// ranges and exclusion sets, to a relative 1e-9.
void expect_scan_agrees(const PiecewiseMiss& got, const ReferencePiecewiseMiss& want,
                        Rng& rng, int step) {
  ArcSet exclude;
  for (int k = 0; k < rng.uniform_int(0, 3); ++k) {
    const double start = rng.uniform(0.0, kTwoPi);
    exclude.add(Arc{start, rng.uniform(0.05, 2.0)});
  }
  for (int q = 0; q < 4; ++q) {
    const double x = rng.uniform(0.0, kTwoPi);
    const double y = rng.uniform(0.0, kTwoPi);
    const double lo = std::min(x, y), hi = std::max(x, y);
    const double fast = got.integrate_excluding(lo, hi, exclude);
    const double scan = want.integrate_excluding_scan(lo, hi, exclude);
    EXPECT_NEAR(fast, scan, 1e-9 * std::max(1.0, std::fabs(scan))) << step;
  }
}

TEST(RebuildOracle, InPlaceRebuildMatchesFreshBuildBitwise) {
  // One object and one scratch, rebuilt over and over: every step changes
  // density (dense, sparse, constant) and weighting, so stale state from
  // the previous shape would show up in the probes.
  Rng rng(1602);
  Rng query_rng(1603);  // its own stream: the covers stay the same draws
  PiecewiseMiss pm;
  PiecewiseMiss::Scratch scratch;
  const Kind kinds[] = {Kind::kDense, Kind::kSparse, Kind::kConstant};
  int dense = 0;
  for (int step = 0; step < 600; ++step) {
    const Kind kind = step < 9 ? kinds[step % 3] : kinds[rng.uniform_int(0, 2)];
    const bool weighted = kind != Kind::kConstant && (step / 3) % 2 == 1;
    const std::vector<NodePoiCover> covers = random_covers(rng, kind);
    const std::shared_ptr<AspectProfile> profile =
        weighted ? random_profile(rng) : nullptr;
    pm.rebuild(views_of(covers), profile.get(), scratch);

    std::vector<std::pair<double, const ArcSet*>> pairs;
    for (const NodePoiCover& c : covers) pairs.push_back({c.p, &c.arcs});
    const ReferencePiecewiseMiss ref =
        ReferencePiecewiseMiss::build(pairs, profile.get());
    expect_same_function(pm, ref, step);
    expect_scan_agrees(pm, ref, query_rng, step);
    pm.audit();
    if (pm.segment_count() >= 32) ++dense;
  }
  EXPECT_GT(dense, 50);  // the binary search really ran over >= 32 segments
}

TEST(RebuildOracle, MissSweepSurvivesUnderflowOfManyCovers) {
  // 1500 covers at p = 0.5 open at the same angle and close one by one, so
  // the segment after the k-th close has 1500 - k covers open and a miss
  // product of exactly 2^-(1500 - k). A sweep that lets its running product
  // underflow to 0 can never divide back up and reads 0 everywhere.
  constexpr int kCovers = 1500;
  constexpr double kStart = 0.5;
  constexpr double kStep = 3.0 / kCovers;
  std::vector<NodePoiCover> covers;
  for (int i = 0; i < kCovers; ++i) {
    NodePoiCover c{i, 0.5, {}};
    c.arcs.add(Arc{kStart, kStep * (i + 1)});
    covers.push_back(std::move(c));
  }
  PiecewiseMiss pm;
  PiecewiseMiss::Scratch scratch;
  pm.rebuild(views_of(covers), nullptr, scratch);
  pm.audit();
  EXPECT_EQ(pm.value_at(kStart / 2.0), 1.0);
  for (int closed = 0; closed < kCovers; ++closed) {
    const double mid = kStart + kStep * (closed + 0.5);
    const int open = kCovers - closed;
    // ldexp is exact down to the smallest subnormal, 2^-1074, and 0 below.
    EXPECT_EQ(pm.value_at(mid), std::ldexp(1.0, -open)) << open << " open";
  }
  EXPECT_EQ(pm.value_at(kStart + kStep * (kCovers - 0.5)), 0.5);
  EXPECT_EQ(pm.value_at(kStart + kStep * (kCovers - 9.5)), std::ldexp(1.0, -10));
  EXPECT_EQ(pm.value_at(kStart + kStep * kCovers + 0.1), 1.0);
}

}  // namespace
}  // namespace photodtn

// CELF equivalence suite. The optimization contract of the selection layer
// is *bitwise*: lazy (CELF) selection and the plain-greedy oracle
// (reference_selection.h) pick identical photos in identical order.
// These tests pin that contract across 1000 random scenarios plus
// adversarial tie and eps-boundary constructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "selection/greedy_selector.h"
#include "selection/reference_selection.h"
#include "selection/selection_env.h"
#include "test_util.h"
#include "util/rng.h"

namespace photodtn {
namespace {

using test::make_poi;
using test::photo_viewing;

constexpr std::uint64_t kPhotoBytes = 4'000'000;

/// One random scenario: a handful of PoIs, a photo pool aimed at them, and
/// an optional set of environment collections.
struct Scenario {
  PoiList pois;
  CoverageModel model;
  std::vector<PhotoMeta> pool;
  std::vector<NodeCollection> collections;

  Scenario(Rng& rng, std::size_t npois, std::size_t nphotos, std::size_t nenv)
      : pois(random_pois(rng, npois)), model(pois, deg_to_rad(25.0)) {
    for (std::size_t k = 0; k < nphotos; ++k)
      pool.push_back(photo_viewing(random_poi(rng), rng.uniform(0.0, 360.0),
                                   rng.uniform(60.0, 150.0)));
    std::vector<std::size_t> counts;
    for (std::size_t n = 0; n < nenv; ++n) {
      counts.push_back(static_cast<std::size_t>(rng.uniform_int(1, 4)));
      for (std::size_t k = 0; k < counts.back(); ++k)
        env_photos.push_back(
            photo_viewing(random_poi(rng), rng.uniform(0.0, 360.0)));
    }
    // Resolve environment footprints only after env_photos stops growing
    // (footprint_cached pointers are stable, but the vector isn't).
    std::size_t next = 0;
    for (std::size_t n = 0; n < nenv; ++n) {
      NodeCollection nc;
      nc.node = static_cast<NodeId>(100 + n);
      nc.delivery_prob = rng.uniform(0.1, 0.9);
      for (std::size_t k = 0; k < counts[n]; ++k, ++next)
        nc.footprints.push_back(&model.footprint_cached(env_photos[next]));
      collections.push_back(std::move(nc));
    }
  }

  std::vector<PhotoMeta> env_photos;

 private:
  static PoiList random_pois(Rng& rng, std::size_t npois) {
    PoiList out;
    for (std::size_t i = 0; i < npois; ++i)
      out.push_back(make_poi(rng.uniform(-250.0, 250.0), rng.uniform(-250.0, 250.0),
                             static_cast<std::int32_t>(i),
                             rng.uniform(0.5, 2.0)));
    return out;
  }
  const PointOfInterest& random_poi(Rng& rng) const {
    return pois[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pois.size()) - 1))];
  }
};

std::vector<PhotoId> run_select(const Scenario& sc, bool lazy, std::uint64_t cap) {
  SelectionEnvironment env(sc.model, sc.collections);
  GreedyPhase phase(env, 0.7);
  return test::greedy_select(lazy, sc.model, sc.pool, cap, phase);
}

TEST(CelfEquivalence, ThousandSeedsLazyEqualsPlainIdenticalSetsAndOrder) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    test::reset_photo_ids();
    const Scenario sc(rng,
                      static_cast<std::size_t>(rng.uniform_int(2, 7)),
                      static_cast<std::size_t>(rng.uniform_int(4, 18)),
                      static_cast<std::size_t>(rng.uniform_int(0, 3)));
    const std::uint64_t cap =
        static_cast<std::uint64_t>(rng.uniform_int(2, 8)) * kPhotoBytes;
    const auto lazy = run_select(sc, /*lazy=*/true, cap);
    const auto plain = run_select(sc, /*lazy=*/false, cap);
    ASSERT_EQ(lazy, plain) << "seed " << seed;  // ids AND order
  }
}

TEST(CelfEquivalence, AdversarialClonePoolTiesBreakByLowestIdOnBothPaths) {
  // Clones tie *exactly* (same footprint, same arithmetic); among tied
  // candidates the lowest PhotoId must win on every path, whatever the pool
  // permutation.
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  const PhotoMeta base_a = photo_viewing(model.pois()[0], 0.0);
  const PhotoMeta base_b = photo_viewing(model.pois()[0], 180.0);
  std::vector<PhotoMeta> pool;
  for (PhotoId c = 0; c < 3; ++c) {
    PhotoMeta a = base_a, b = base_b;
    a.id = 10 + c;
    b.id = 20 + c;
    pool.push_back(a);
    pool.push_back(b);
  }
  std::sort(pool.begin(), pool.end(),
            [](const PhotoMeta& x, const PhotoMeta& y) { return x.id < y.id; });
  for (int perm = 0; perm < 6; ++perm) {
    std::vector<PhotoMeta> shuffled = pool;
    Rng rng(static_cast<std::uint64_t>(perm) + 1);
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    std::vector<std::vector<PhotoId>> results;
    for (const bool lazy : {false, true}) {
      SelectionEnvironment env(model, {});
      GreedyPhase phase(env, 1.0);
      results.push_back(
          test::greedy_select(lazy, model, shuffled, 2 * kPhotoBytes, phase));
    }
    ASSERT_EQ(results[0], results[1]) << "perm " << perm;
    // Two photos fit; each clone group contributes its lowest id.
    ASSERT_EQ(results[0].size(), 2u) << "perm " << perm;
    EXPECT_EQ(std::min(results[0][0], results[0][1]), 10u) << "perm " << perm;
    EXPECT_EQ(std::max(results[0][0], results[0][1]), 20u) << "perm " << perm;
  }
}

TEST(CelfEquivalence, EpsBoundaryIsExclusiveOnBothPaths) {
  // eps equal to the best candidate's larger gain component must terminate
  // immediately (the boundary is exclusive); one ulp below it must select.
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{photo_viewing(model.pois()[0], 0.0)};
  CoverageValue g;
  {
    SelectionEnvironment env(model, {});
    GreedyPhase phase(env, 1.0);
    g = phase.gain(model.footprint_cached(pool[0]));
  }
  const double top = std::max(g.point, g.aspect);
  ASSERT_GT(top, 0.0);
  for (const bool lazy : {false, true}) {
    // Both components <= eps -> nothing worth taking.
    SelectionEnvironment env(model, {});
    GreedyPhase phase(env, 1.0);
    EXPECT_TRUE(test::greedy_select(lazy, model, pool, kPhotoBytes, phase, top).empty())
        << "lazy " << lazy;
    // Strictly below -> selects.
    SelectionEnvironment env2(model, {});
    GreedyPhase phase2(env2, 1.0);
    EXPECT_EQ(test::greedy_select(lazy, model, pool, kPhotoBytes, phase2,
                                  std::nextafter(top, 0.0))
                  .size(),
              1u)
        << "lazy " << lazy;
  }
}

TEST(CelfEquivalence, StatsCountCommitsAndReevals) {
  Rng rng(9);
  test::reset_photo_ids();
  const Scenario sc(rng, 5, 40, 2);
  const GreedySelector sel;
  SelectionEnvironment env(sc.model, sc.collections);
  GreedyPhase phase(env, 0.7);
  const auto chosen = sel.select(sc.model, sc.pool, 10 * kPhotoBytes, phase);
  const SelectionStats& st = sel.last_stats();
  EXPECT_EQ(st.commits, chosen.size());
  EXPECT_GE(st.gain_evals, sc.pool.size());  // at least the seeding sweep
  EXPECT_LE(st.reevals, st.gain_evals);
}

}  // namespace
}  // namespace photodtn

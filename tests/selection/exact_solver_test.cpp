// The greedy selector against the exhaustive reference: on tiny instances
// greedy should be optimal or near-optimal (the reallocation problem is
// NP-hard, so greedy carries no worst-case guarantee — but a large gap on
// random instances would indicate a bug, not hardness).
#include "selection/exact_solver.h"

#include <gtest/gtest.h>

#include "selection/greedy_selector.h"
#include "test_util.h"
#include "util/rng.h"

namespace photodtn {
namespace {

using test::make_poi;
using test::photo_viewing;

constexpr std::uint64_t kPhoto = 4'000'000;

TEST(ExactSolver, SingleNodeTrivialInstance) {
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{photo_viewing(model.pois()[0], 0.0),
                              photo_viewing(model.pois()[0], 0.5),   // clone
                              photo_viewing(model.pois()[0], 180.0)};
  const ExactSelection best =
      exact_select(model, pool, 1, 1.0, 2 * kPhoto, {});
  ASSERT_EQ(best.chosen.size(), 2u);
  // Optimal: one of the front views + the back view.
  EXPECT_NE(std::find(best.chosen.begin(), best.chosen.end(), pool[2].id),
            best.chosen.end());
  EXPECT_NEAR(best.value.aspect, deg_to_rad(120.0) - 0.0, 1e-6);
}

TEST(ExactSolver, GreedyMatchesExactOnEasyInstances) {
  // Disjoint arcs: greedy is provably optimal.
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> pool;
  for (int d = 0; d < 360; d += 90) pool.push_back(photo_viewing(model.pois()[0], d));
  SelectionEnvironment env(model, {});
  GreedyPhase phase(env, 0.8);
  const GreedySelector sel;
  const auto greedy = sel.select(model, pool, 3 * kPhoto, phase);
  const ExactSelection best = exact_select(model, pool, 1, 0.8, 3 * kPhoto, {});
  EXPECT_EQ(greedy.size(), best.chosen.size());
  // Same value, possibly different photo choice among symmetric options.
  std::vector<PhotoId> g = greedy;
  const CoverageValue gv = allocation_value(model, pool, g, 0.8, {}, 0.5, 1, 2, {});
  EXPECT_NEAR(gv.aspect, best.value.aspect, 1e-9);
}

TEST(ExactSolver, GreedySelectionNearOptimalOnRandomInstances) {
  Rng rng(555);
  double worst_ratio = 1.0;
  for (int trial = 0; trial < 12; ++trial) {
    PoiList pois;
    const int npois = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < npois; ++i)
      pois.push_back(make_poi(rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0), i));
    const CoverageModel model(pois, deg_to_rad(30.0));
    std::vector<PhotoMeta> pool;
    const int k = static_cast<int>(rng.uniform_int(4, 8));
    for (int i = 0; i < k; ++i) {
      const auto& poi = pois[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pois.size()) - 1))];
      pool.push_back(photo_viewing(poi, rng.uniform(0.0, 360.0)));
    }
    const std::uint64_t cap = static_cast<std::uint64_t>(rng.uniform_int(2, 4)) * kPhoto;
    const double p = rng.uniform(0.3, 1.0);

    SelectionEnvironment env(model, {});
    GreedyPhase phase(env, p);
    const GreedySelector sel;
    const auto greedy = sel.select(model, pool, cap, phase);
    const CoverageValue gv = allocation_value(model, pool, greedy, p, {}, 0.5, 1, 2, {});
    const ExactSelection best = exact_select(model, pool, 1, p, cap, {});
    ASSERT_GE(best.value.aspect + best.value.point, gv.aspect + gv.point - 1e-9);
    if (best.value.aspect > 1e-9)
      worst_ratio = std::min(worst_ratio, gv.aspect / best.value.aspect);
    // Point coverage: greedy always matches the optimum here (point gains
    // dominate lexicographically and are matroid-like).
    EXPECT_NEAR(gv.point, best.value.point, 1e-9) << trial;
  }
  // Greedy on submodular aspect coverage guarantees (1 - 1/e) ~ 0.632 under
  // a cardinality constraint; observed worst cases on random instances sit
  // around 0.8 (the lexicographic point-priority can sacrifice aspect).
  EXPECT_GT(worst_ratio, 0.70);
}

TEST(ExactSolver, GreedyReallocationNearOptimal) {
  Rng rng(808);
  double worst_ratio = 1.0;
  for (int trial = 0; trial < 8; ++trial) {
    PoiList pois{make_poi(0.0, 0.0, 0), make_poi(250.0, 100.0, 1)};
    const CoverageModel model(pois, deg_to_rad(30.0));
    std::vector<PhotoMeta> pool;
    const int k = 6;
    for (int i = 0; i < k; ++i) {
      const auto& poi = pois[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      pool.push_back(photo_viewing(poi, rng.uniform(0.0, 360.0)));
    }
    const double pa = rng.uniform(0.4, 1.0);
    const double pb = rng.uniform(0.1, 0.5);
    const std::uint64_t cap = 3 * kPhoto;

    const GreedySelector sel;
    SelectionEnvironment env(model);
    const ReallocationPlan plan =
        sel.reallocate(model, pool, 1, pa, cap, 2, pb, cap, env);
    const std::vector<PhotoId>& at_a = plan.first == 1 ? plan.first_target
                                                       : plan.second_target;
    const std::vector<PhotoId>& at_b = plan.first == 1 ? plan.second_target
                                                       : plan.first_target;
    const CoverageValue gv = allocation_value(model, pool, at_a, pa, at_b, pb, 1, 2, {});
    const ExactReallocation best =
        exact_reallocate(model, pool, 1, pa, cap, 2, pb, cap, {});
    ASSERT_GE(best.value.point + 1e-9, gv.point);
    const double denom = best.value.point + best.value.aspect;
    if (denom > 1e-9)
      worst_ratio = std::min(worst_ratio, (gv.point + gv.aspect) / denom);
  }
  EXPECT_GT(worst_ratio, 0.8);
}

TEST(ExactSolver, RespectsSizeLimits) {
  const CoverageModel model = test::single_poi_model();
  std::vector<PhotoMeta> pool(21, photo_viewing(model.pois()[0], 0.0));
  EXPECT_THROW(exact_select(model, pool, 1, 0.5, 1, {}), std::logic_error);
  std::vector<PhotoMeta> pool11(11, photo_viewing(model.pois()[0], 0.0));
  EXPECT_THROW(exact_reallocate(model, pool11, 1, 0.5, 1, 2, 0.5, 1, {}),
               std::logic_error);
}

TEST(ExactSolver, EnvironmentShiftsTheOptimum) {
  // With the center already holding the front view, the optimum flips to
  // the back view.
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  const PhotoMeta front = photo_viewing(model.pois()[0], 0.0);
  const PhotoMeta back = photo_viewing(model.pois()[0], 180.0);
  const PhotoFootprint fp_front = model.footprint(front);
  std::vector<NodeCollection> env{{kCommandCenter, 1.0, {&fp_front}}};
  const ExactSelection best = exact_select(
      model, std::vector<PhotoMeta>{front, back}, 1, 0.9, kPhoto, env);
  ASSERT_EQ(best.chosen.size(), 1u);
  EXPECT_EQ(best.chosen[0], back.id);
}

}  // namespace
}  // namespace photodtn

#include "selection/greedy_selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "selection/reference_selection.h"
#include "test_util.h"
#include "util/rng.h"

namespace photodtn {
namespace {

using test::make_poi;
using test::photo_viewing;

/// Effectively unlimited storage for tests that exercise value, not space.
constexpr std::uint64_t kBigCap = ~0ULL;

std::uint64_t bytes_of(const std::vector<PhotoMeta>& pool,
                       const std::vector<PhotoId>& chosen) {
  std::uint64_t total = 0;
  for (const PhotoId id : chosen)
    for (const PhotoMeta& p : pool)
      if (p.id == id) total += p.size_bytes;
  return total;
}

TEST(GreedySelector, PicksDiverseViewsOverRedundantOnes) {
  // Pool: three near-identical views of the PoI plus one opposite view.
  // With capacity for two photos, greedy must take one of the clones and
  // the opposite view — individual-utility ranking would take two clones.
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{
      photo_viewing(model.pois()[0], 0.0), photo_viewing(model.pois()[0], 2.0),
      photo_viewing(model.pois()[0], 4.0), photo_viewing(model.pois()[0], 180.0)};
  SelectionEnvironment env(model, {});
  GreedyPhase phase(env, 1.0);
  const GreedySelector sel;
  const auto chosen = sel.select(model, pool, 2 * 4'000'000, phase);
  ASSERT_EQ(chosen.size(), 2u);
  const PhotoId opposite = pool[3].id;
  EXPECT_NE(std::find(chosen.begin(), chosen.end(), opposite), chosen.end());
}

TEST(GreedySelector, RespectsCapacity) {
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> pool;
  for (int d = 0; d < 360; d += 30) pool.push_back(photo_viewing(model.pois()[0], d));
  SelectionEnvironment env(model, {});
  GreedyPhase phase(env, 1.0);
  const GreedySelector sel;
  const auto chosen = sel.select(model, pool, 3 * 4'000'000, phase);
  EXPECT_EQ(chosen.size(), 3u);
  EXPECT_LE(bytes_of(pool, chosen), 3ull * 4'000'000);
}

TEST(GreedySelector, StopsWhenNoMoreBenefit) {
  // Two identical photos: only one has positive gain.
  const CoverageModel model = test::single_poi_model(30.0);
  const PhotoMeta a = photo_viewing(model.pois()[0], 0.0);
  PhotoMeta b = a;
  b.id = a.id + 1000;
  SelectionEnvironment env(model, {});
  GreedyPhase phase(env, 1.0);
  const GreedySelector sel;
  const auto chosen = sel.select(model, std::vector<PhotoMeta>{a, b},
                                 kBigCap, phase);
  EXPECT_EQ(chosen.size(), 1u);
}

TEST(GreedySelector, IgnoresIrrelevantPhotos) {
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  const PhotoMeta useful = photo_viewing(model.pois()[0], 0.0);
  const PhotoMeta useless = test::make_photo(5000.0, 5000.0, 0.0);
  SelectionEnvironment env(model, {});
  GreedyPhase phase(env, 1.0);
  const GreedySelector sel;
  const auto chosen =
      sel.select(model, std::vector<PhotoMeta>{useless, useful}, kBigCap, phase);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], useful.id);
}

TEST(GreedySelector, SelectionOrderIsByMarginalValue) {
  // First pick must be the photo covering a *new* PoI even if another photo
  // has a wider arc on an already-covered PoI — point dominates (Def. 1).
  const PoiList pois{make_poi(0.0, 0.0, 0), make_poi(1000.0, 0.0, 1)};
  const CoverageModel model(pois, deg_to_rad(30.0));
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{photo_viewing(pois[0], 0.0), photo_viewing(pois[0], 180.0),
                              photo_viewing(pois[1], 90.0)};
  SelectionEnvironment env(model, {});
  GreedyPhase phase(env, 1.0);
  const GreedySelector sel;
  const auto chosen = sel.select(model, pool, kBigCap, phase);
  ASSERT_EQ(chosen.size(), 3u);
  // The first two picks each cover a distinct PoI.
  std::unordered_set<PhotoId> first_two{chosen[0], chosen[1]};
  EXPECT_TRUE(first_two.contains(pool[2].id));
}

TEST(GreedySelector, LazyMatchesPlainGreedy) {
  // Property: lazy evaluation must produce exactly the plain-greedy result.
  Rng rng(2024);
  for (int trial = 0; trial < 15; ++trial) {
    PoiList pois;
    const int npois = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < npois; ++i)
      pois.push_back(make_poi(rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0), i));
    const CoverageModel model(pois, deg_to_rad(25.0));
    std::vector<PhotoMeta> pool;
    const int n = static_cast<int>(rng.uniform_int(5, 25));
    for (int k = 0; k < n; ++k) {
      const auto& poi = pois[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pois.size()) - 1))];
      pool.push_back(photo_viewing(poi, rng.uniform(0.0, 360.0)));
    }
    const std::uint64_t cap = static_cast<std::uint64_t>(rng.uniform_int(2, 10)) * 4'000'000;

    SelectionEnvironment env(model, {});
    GreedyPhase phase_lazy(env, 0.7);
    GreedyPhase phase_plain(env, 0.7);
    const auto a = test::greedy_select(/*lazy=*/true, model, pool, cap, phase_lazy);
    const auto b = test::greedy_select(/*lazy=*/false, model, pool, cap, phase_plain);
    EXPECT_EQ(a, b) << "trial " << trial;
  }
}

TEST(GreedySelector, ReallocateHigherProbabilityNodeSelectsFirst) {
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{photo_viewing(model.pois()[0], 0.0),
                              photo_viewing(model.pois()[0], 180.0)};
  const GreedySelector sel;
  SelectionEnvironment env(model);
  const ReallocationPlan plan =
      sel.reallocate(model, pool, /*a=*/1, 0.2, kBigCap, /*b=*/2, 0.9,
                     kBigCap, env);
  EXPECT_EQ(plan.first, 2);
  EXPECT_EQ(plan.second, 1);
  EXPECT_EQ(plan.first_target.size(), 2u);
}

TEST(GreedySelector, SecondNodeAvoidsDuplicatingWhenFirstIsReliable) {
  // First node (p ~ 1) takes both useful views; the second node then gains
  // almost nothing from repeating them and selects nothing.
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> pool{photo_viewing(model.pois()[0], 0.0),
                              photo_viewing(model.pois()[0], 180.0)};
  GreedyParams params;
  params.eps = 1e-3;  // treat the tiny residual gain as "no benefit"
  const GreedySelector sel(params);
  SelectionEnvironment env(model);
  const ReallocationPlan plan = sel.reallocate(model, pool, 1, 0.999, kBigCap,
                                               2, 0.5, kBigCap, env);
  EXPECT_EQ(plan.first_target.size(), 2u);
  EXPECT_TRUE(plan.second_target.empty());
}

TEST(GreedySelector, SecondNodeDuplicatesWhenFirstIsUnreliable) {
  // Paper: "It is possible that n_b selects a photo already stored in n_a —
  // when n_a cannot deliver it with a high probability."
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> pool{photo_viewing(model.pois()[0], 0.0),
                              photo_viewing(model.pois()[0], 180.0)};
  const GreedySelector sel;
  SelectionEnvironment env(model);
  const ReallocationPlan plan = sel.reallocate(model, pool, 1, 0.05, kBigCap,
                                               2, 0.04, kBigCap, env);
  EXPECT_EQ(plan.first_target.size(), 2u);
  EXPECT_EQ(plan.second_target.size(), 2u);
}

TEST(GreedySelector, EnvironmentSuppressesAcknowledgedPhotos) {
  // A command-center environment entry holding the same view makes the
  // photo worthless: nothing gets selected.
  const CoverageModel model = test::single_poi_model(30.0);
  const PhotoMeta view = photo_viewing(model.pois()[0], 0.0);
  const PhotoFootprint fp = model.footprint(view);
  std::vector<NodeCollection> env_nodes{{kCommandCenter, 1.0, {&fp}}};
  SelectionEnvironment env(model, env_nodes);
  GreedyPhase phase(env, 0.9);
  const GreedySelector sel;
  const auto chosen =
      sel.select(model, std::vector<PhotoMeta>{view}, kBigCap, phase);
  EXPECT_TRUE(chosen.empty());
}

TEST(GreedySelector, PfloorKeepsSelectionAliveAtZeroDeliveryProbability) {
  // A node that has never met the center (p = 0) must still select photos:
  // the floor keeps gains positive without changing their order.
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> pool{photo_viewing(model.pois()[0], 0.0),
                              photo_viewing(model.pois()[0], 180.0)};
  const GreedySelector sel;
  SelectionEnvironment env(model);
  const ReallocationPlan plan =
      sel.reallocate(model, pool, 1, 0.0, kBigCap, 2, 0.0, kBigCap, env);
  EXPECT_EQ(plan.first_target.size(), 2u);
  // With p truly 0 on both sides, the second node duplicates everything —
  // the first node's copies are worthless as an environment.
  EXPECT_EQ(plan.second_target.size(), 2u);
}

TEST(GreedySelector, PfloorDoesNotReorderCandidates) {
  // Selection order must be identical for p = 0 (floored) and any real p:
  // a common factor cannot reorder marginal gains.
  const CoverageModel model = test::single_poi_model(30.0);
  std::vector<PhotoMeta> pool;
  for (int d = 0; d < 360; d += 45) pool.push_back(photo_viewing(model.pois()[0], d));
  const GreedySelector sel;
  SelectionEnvironment env(model, {});
  GreedyPhase low(env, sel.params().p_floor);
  GreedyPhase high(env, 0.9);
  const auto a = sel.select(model, pool, kBigCap, low);
  const auto b = sel.select(model, pool, kBigCap, high);
  EXPECT_EQ(a, b);
}

TEST(GreedySelector, TiesBreakByPhotoIdRegardlessOfPoolOrder) {
  // Regression: identical-gain candidates used to be taken in pool order,
  // so shuffling the pool (or switching lazy <-> plain) changed the
  // selection. Ties now break toward the lower PhotoId on every path.
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  // Four byte-identical views: every one has exactly the same gain, and
  // after the first commit the rest gain nothing.
  std::vector<PhotoMeta> pool{
      photo_viewing(model.pois()[0], 0.0), photo_viewing(model.pois()[0], 0.0),
      photo_viewing(model.pois()[0], 0.0), photo_viewing(model.pois()[0], 0.0)};
  const std::vector<PhotoId> ids{pool[0].id, pool[1].id, pool[2].id, pool[3].id};
  std::vector<std::size_t> order{0, 1, 2, 3};
  for (int perm = 0; perm < 24; ++perm) {
    std::vector<PhotoMeta> shuffled;
    for (const std::size_t i : order) shuffled.push_back(pool[i]);
    for (const bool lazy : {false, true}) {
      SelectionEnvironment env(model, {});
      GreedyPhase phase(env, 1.0);
      const auto chosen =
          test::greedy_select(lazy, model, shuffled, 2 * 4'000'000, phase);
      // The pick is always the lowest id; the clones then gain nothing, so
      // selection stops after one.
      EXPECT_EQ(chosen, std::vector<PhotoId>{ids[0]})
          << "perm " << perm << " lazy " << lazy;
    }
    std::next_permutation(order.begin(), order.end());
  }
}

TEST(GreedySelector, TiedDistinctGainsSelectSameSequenceOnBothPaths) {
  // Two disjoint pairs of byte-identical views (the two pairs have the same
  // gain mathematically, but the 0-degree arc wraps 0/2pi so its integral
  // can differ from the 180-degree one by ulps — which pair wins first is
  // therefore not pinned here). What IS pinned: every pool order and both
  // greedy paths produce the same sequence, and within each bitwise-tied
  // pair the lower PhotoId wins.
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{
      photo_viewing(model.pois()[0], 0.0), photo_viewing(model.pois()[0], 0.0),
      photo_viewing(model.pois()[0], 180.0), photo_viewing(model.pois()[0], 180.0)};
  std::vector<PhotoId> reference;
  std::vector<std::size_t> order{0, 1, 2, 3};
  for (int perm = 0; perm < 24; ++perm) {
    std::vector<PhotoMeta> shuffled;
    for (const std::size_t i : order) shuffled.push_back(pool[i]);
    for (const bool lazy : {false, true}) {
      SelectionEnvironment env(model, {});
      GreedyPhase phase(env, 1.0);
      const auto chosen = test::greedy_select(lazy, model, shuffled, kBigCap, phase);
      if (reference.empty()) {
        reference = chosen;
        // One pick per pair, each the lower id of its pair (the clone gains
        // exactly zero afterwards and ids break the bitwise tie).
        ASSERT_EQ(reference.size(), 2u);
        EXPECT_TRUE((reference[0] == pool[0].id && reference[1] == pool[2].id) ||
                    (reference[0] == pool[2].id && reference[1] == pool[0].id))
            << reference[0] << "," << reference[1];
      }
      EXPECT_EQ(chosen, reference) << "perm " << perm << " lazy " << lazy;
    }
    std::next_permutation(order.begin(), order.end());
  }
}

TEST(GreedySelector, EpsBoundaryGainsTerminateWithoutStalling) {
  // Gains exactly at GreedyParams::eps sit on the exclusive stop boundary:
  // "no more benefit". A pool full of such candidates must terminate with
  // an empty selection on both paths instead of churning through ties.
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  std::vector<PhotoMeta> pool{photo_viewing(model.pois()[0], 0.0),
                              photo_viewing(model.pois()[0], 90.0)};
  for (const bool lazy : {false, true}) {
    // Raise eps beyond any attainable gain (point <= 1, aspect <= 2*pi
    // weighted by w = 1): every candidate is at-or-below the boundary.
    SelectionEnvironment env(model, {});
    GreedyPhase phase(env, 1.0);
    const auto chosen = test::greedy_select(lazy, model, pool, kBigCap, phase, 10.0);
    EXPECT_TRUE(chosen.empty()) << "lazy " << lazy;
  }
}

TEST(GreedySelector, SkipsPhotosTooLargeForRemainingCapacity) {
  const CoverageModel model = test::single_poi_model(30.0);
  test::reset_photo_ids();
  PhotoMeta big = photo_viewing(model.pois()[0], 0.0);
  big.size_bytes = 10'000'000;
  PhotoMeta small = photo_viewing(model.pois()[0], 180.0);
  small.size_bytes = 1'000'000;
  SelectionEnvironment env(model, {});
  GreedyPhase phase(env, 1.0);
  const GreedySelector sel;
  // Capacity fits only the small photo even though the big one also has a
  // 60-degree arc (ties broken by heap order; the big one simply can't fit).
  const auto chosen = sel.select(model, std::vector<PhotoMeta>{big, small}, 2'000'000, phase);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], small.id);
}

}  // namespace
}  // namespace photodtn

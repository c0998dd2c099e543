// Differential battery locking the incremental per-PoI engine to the two
// reference evaluators: on seeded random instances,
//   SelectionEnvironment::total == expected_coverage_exact
//                               == expected_coverage_enumerate
// to 1e-12 (relative), including after engine churn (collections added,
// extended and removed in arbitrary order), and the lazy greedy path picks
// exactly the same photo sequence as the plain-greedy oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geometry/angle.h"
#include "selection/expected_coverage.h"
#include "selection/greedy_selector.h"
#include "selection/reference_selection.h"
#include "selection/selection_env.h"
#include "test_util.h"
#include "util/rng.h"

namespace photodtn {
namespace {

using test::make_photo;
using test::photo_viewing;

/// One random instance: a model of up to 16 PoIs (some aspect-weighted) and
/// up to `max_nodes` collections with random delivery probabilities.
struct Instance {
  explicit Instance(CoverageModel m) : model(std::move(m)) {}

  CoverageModel model;
  std::vector<NodeCollection> nodes;
  std::vector<std::unique_ptr<PhotoFootprint>> fps;
};

PoiList random_pois(Rng& rng, int max_pois) {
  const int n = rng.uniform_int(1, max_pois);
  PoiList pois;
  for (int i = 0; i < n; ++i) {
    std::shared_ptr<AspectProfile> profile;
    if (rng.bernoulli(0.3)) {
      profile = std::make_shared<AspectProfile>();
      const int bands = rng.uniform_int(1, 3);
      for (int b = 0; b < bands; ++b)
        profile->set_band(Arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.2, 3.0)},
                          rng.uniform(0.0, 4.0));
    }
    pois.push_back(PointOfInterest{i,
                                   {rng.uniform(-250.0, 250.0), rng.uniform(-250.0, 250.0)},
                                   rng.uniform(0.25, 3.0),
                                   std::move(profile)});
  }
  return pois;
}

Instance random_instance(Rng& rng, int max_pois, int max_nodes) {
  Instance inst(CoverageModel{random_pois(rng, max_pois), deg_to_rad(30.0)});
  const int m = rng.uniform_int(1, max_nodes);
  const int npois = static_cast<int>(inst.model.pois().size());
  for (int n = 0; n < m; ++n) {
    NodeCollection nc;
    nc.node = static_cast<NodeId>(n + 1);
    // Occasionally pin the endpoints: p = 1 exercises the zero-count sweep
    // (command center), p = 0 a collection that can never deliver.
    const double roll = rng.uniform(0.0, 1.0);
    nc.delivery_prob = roll < 0.05 ? 1.0 : roll < 0.10 ? 0.0 : rng.uniform(0.01, 0.99);
    const int photos = rng.uniform_int(0, 4);
    for (int k = 0; k < photos; ++k) {
      PhotoMeta ph;
      if (rng.bernoulli(0.8)) {
        const auto& poi =
            inst.model.pois()[static_cast<std::size_t>(rng.uniform_int(0, npois - 1))];
        ph = photo_viewing(poi, rng.uniform(0.0, 360.0), rng.uniform(40.0, 180.0));
      } else {
        // Free-floating photo: may cover several PoIs, or none at all.
        ph = make_photo(rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0),
                        rng.uniform(0.0, 360.0));
      }
      inst.fps.push_back(std::make_unique<PhotoFootprint>(inst.model.footprint(ph)));
      nc.footprints.push_back(inst.fps.back().get());
    }
    inst.nodes.push_back(std::move(nc));
  }
  return inst;
}

void expect_close(const CoverageValue& got, const CoverageValue& want,
                  const char* what, int seed) {
  EXPECT_NEAR(got.point, want.point, 1e-12 * std::max(1.0, std::fabs(want.point)))
      << what << " point, seed " << seed;
  EXPECT_NEAR(got.aspect, want.aspect, 1e-12 * std::max(1.0, std::fabs(want.aspect)))
      << what << " aspect, seed " << seed;
}

TEST(IncrementalDiff, EngineMatchesExactAndEnumerateOnRandomInstances) {
  // >= 1000 seeded instances; every one is checked three ways.
  for (int seed = 0; seed < 1000; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 1);
    const Instance inst = random_instance(rng, /*max_pois=*/16, /*max_nodes=*/10);
    const CoverageValue exact = expected_coverage_exact(inst.model, inst.nodes);
    const CoverageValue enumerated = expected_coverage_enumerate(inst.model, inst.nodes);
    const CoverageValue incremental = SelectionEnvironment(inst.model, inst.nodes).total();
    expect_close(exact, enumerated, "exact vs enumerate", seed);
    expect_close(incremental, enumerated, "incremental vs enumerate", seed);
    expect_close(incremental, exact, "incremental vs exact", seed);
  }
}

TEST(IncrementalDiff, ChurnedEngineMatchesCleanEvaluators) {
  // The engine must land on the same value regardless of how its state was
  // reached: collections split into add + extend, junk collections added and
  // removed mid-stream, queries interleaved to force partial refreshes.
  for (int seed = 0; seed < 300; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 50'000);
    Instance inst = random_instance(rng, /*max_pois=*/12, /*max_nodes=*/8);
    SelectionEnvironment env(inst.model);

    // Junk collections that will be removed again before the comparison.
    std::vector<std::unique_ptr<PhotoFootprint>> junk_fps;
    auto add_junk = [&](NodeId id) {
      NodeCollection junk;
      junk.node = id;
      junk.delivery_prob = rng.uniform(0.05, 0.95);
      const int npois = static_cast<int>(inst.model.pois().size());
      for (int k = 0; k < rng.uniform_int(1, 3); ++k) {
        const auto& poi =
            inst.model.pois()[static_cast<std::size_t>(rng.uniform_int(0, npois - 1))];
        junk_fps.push_back(std::make_unique<PhotoFootprint>(
            inst.model.footprint(photo_viewing(poi, rng.uniform(0.0, 360.0)))));
        junk.footprints.push_back(junk_fps.back().get());
      }
      env.add_collection(junk);
    };

    add_junk(900);
    for (const NodeCollection& nc : inst.nodes) {
      if (nc.footprints.size() >= 2 && rng.bernoulli(0.5)) {
        // Split: add the first half, extend with the rest.
        const std::size_t half = nc.footprints.size() / 2;
        NodeCollection head = nc;
        head.footprints.assign(nc.footprints.begin(),
                               nc.footprints.begin() + static_cast<std::ptrdiff_t>(half));
        env.add_collection(head);
        env.extend_collection(
            nc.node, nc.delivery_prob,
            std::span<const PhotoFootprint* const>(nc.footprints).subspan(half));
      } else {
        env.add_collection(nc);
      }
      // Interleaved query forces a partial refresh so later invalidations
      // hit already-built PoI state.
      if (!inst.model.pois().empty() && rng.bernoulli(0.5))
        (void)env.point_miss(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(inst.model.pois().size()) - 1)));
    }
    add_junk(901);
    ASSERT_TRUE(env.remove_collection(900));
    ASSERT_TRUE(env.remove_collection(901));
    EXPECT_FALSE(env.remove_collection(902));  // never added
    ASSERT_NO_THROW(env.audit());

    const CoverageValue churned = env.total();
    expect_close(churned, expected_coverage_exact(inst.model, inst.nodes),
                 "churned engine vs exact", seed);
    expect_close(churned, expected_coverage_enumerate(inst.model, inst.nodes),
                 "churned engine vs enumerate", seed);
  }
}

TEST(IncrementalDiff, LazyAndPlainGreedySelectIdenticalSequences) {
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 100'000);
    Instance inst = random_instance(rng, /*max_pois=*/12, /*max_nodes=*/6);
    const int npois = static_cast<int>(inst.model.pois().size());

    std::vector<PhotoMeta> pool;
    const int pool_size = rng.uniform_int(1, 12);
    for (int k = 0; k < pool_size; ++k) {
      const auto& poi =
          inst.model.pois()[static_cast<std::size_t>(rng.uniform_int(0, npois - 1))];
      PhotoMeta ph = photo_viewing(poi, rng.uniform(0.0, 360.0));
      ph.id = static_cast<PhotoId>(k + 1);
      ph.size_bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 4)) * 1'000'000;
      pool.push_back(ph);
    }
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(rng.uniform_int(2, 20)) * 1'000'000;
    const double p_self = rng.uniform(0.05, 1.0);

    SelectionEnvironment env_plain(inst.model, inst.nodes);
    GreedyPhase phase_plain(env_plain, p_self);
    const auto plain =
        test::greedy_select(/*lazy=*/false, inst.model, pool, capacity, phase_plain);

    SelectionEnvironment env_lazy(inst.model, inst.nodes);
    GreedyPhase phase_lazy(env_lazy, p_self);
    const auto lazy =
        test::greedy_select(/*lazy=*/true, inst.model, pool, capacity, phase_lazy);

    EXPECT_EQ(plain, lazy) << "seed " << seed;
  }
}

TEST(IncrementalDiff, ReallocatePersistentEngineMatchesThrowawayPath) {
  // A persistent engine reused across calls (with phase-2 churn in between)
  // must produce the plans a freshly built engine does.
  for (int seed = 0; seed < 100; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 200'000);
    Instance inst = random_instance(rng, /*max_pois=*/12, /*max_nodes=*/5);
    const int npois = static_cast<int>(inst.model.pois().size());

    std::vector<PhotoMeta> pool;
    for (int k = 0; k < rng.uniform_int(2, 10); ++k) {
      const auto& poi =
          inst.model.pois()[static_cast<std::size_t>(rng.uniform_int(0, npois - 1))];
      PhotoMeta ph = photo_viewing(poi, rng.uniform(0.0, 360.0));
      ph.id = static_cast<PhotoId>(k + 1);
      ph.size_bytes = 1'000'000;
      pool.push_back(ph);
    }
    const NodeId a = 101, b = 102;
    const double pa = rng.uniform(0.0, 1.0);
    const double pb = rng.uniform(0.0, 1.0);
    const std::uint64_t cap_a = static_cast<std::uint64_t>(rng.uniform_int(1, 8)) * 1'000'000;
    const std::uint64_t cap_b = static_cast<std::uint64_t>(rng.uniform_int(1, 8)) * 1'000'000;

    GreedySelector selector;
    SelectionEnvironment fresh(inst.model, inst.nodes);
    const ReallocationPlan via_span = selector.reallocate(
        inst.model, pool, a, pa, cap_a, b, pb, cap_b, fresh);

    SelectionEnvironment env(inst.model, inst.nodes);
    const ReallocationPlan first_pass = selector.reallocate(
        inst.model, pool, a, pa, cap_a, b, pb, cap_b, env);
    // Second pass on the same engine: phase 2's temporary collection must
    // have been fully removed, so the result is reproducible.
    const ReallocationPlan second_pass = selector.reallocate(
        inst.model, pool, a, pa, cap_a, b, pb, cap_b, env);
    ASSERT_NO_THROW(env.audit());

    EXPECT_EQ(via_span.first, first_pass.first) << "seed " << seed;
    EXPECT_EQ(via_span.second, first_pass.second) << "seed " << seed;
    EXPECT_EQ(via_span.first_target, first_pass.first_target) << "seed " << seed;
    EXPECT_EQ(via_span.second_target, first_pass.second_target) << "seed " << seed;
    EXPECT_EQ(first_pass.first_target, second_pass.first_target) << "seed " << seed;
    EXPECT_EQ(first_pass.second_target, second_pass.second_target) << "seed " << seed;
    EXPECT_EQ(env.collection_count(), inst.nodes.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace photodtn

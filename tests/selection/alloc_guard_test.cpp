// Heap-allocation guard for the selection engine's steady state: the PoI
// rebuild sweep, arc insertion, gossip merges, greedy phases, a greedy
// selection and reloading a shared digest; and for the per-node state every
// contact touches: photo store churn and PROPHET encounters. This
// executable replaces the global operator new with a counting one, which is
// why it is built apart from photodtn_tests: each case warms an operation
// up, then asserts that running it again makes no heap allocation (a
// selection makes only those of the id list it returns).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "coverage/coverage_model.h"
#include "dtn/photo_store.h"
#include "geometry/angle.h"
#include "geometry/arc_set.h"
#include "routing/prophet.h"
#include "selection/greedy_selector.h"
#include "selection/metadata_cache.h"
#include "selection/poi_cover.h"
#include "selection/selection_env.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace photodtn {
namespace {

template <class F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// A photo 100 m from `poi` in direction `from` (radians), looking at it.
PhotoMeta photo_of(const PointOfInterest& poi, double from, PhotoId id) {
  PhotoMeta p;
  p.id = id;
  p.location = poi.location + Vec2{100.0 * std::cos(from), 100.0 * std::sin(from)};
  p.orientation = normalize_angle(from + kTwoPi / 2.0);
  p.range = 200.0;
  p.fov = deg_to_rad(60.0);
  return p;
}

TEST(AllocGuard, WarmedEnvironmentRebuildsWithoutAllocating) {
  Rng rng(16);
  PoiList pois;
  for (std::int32_t i = 0; i < 24; ++i) {
    PointOfInterest poi{
        i, {rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)}, 1.0, {}};
    if (i % 3 == 0) {
      auto profile = std::make_shared<AspectProfile>();
      profile->set_band(Arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.3, 2.0)},
                        rng.uniform(0.5, 3.0));
      poi.aspect_profile = std::move(profile);
    }
    pois.push_back(std::move(poi));
  }
  const CoverageModel model(pois, deg_to_rad(30.0));
  std::vector<std::unique_ptr<PhotoFootprint>> footprints;
  SelectionEnvironment env(model);
  PhotoId next_id = 1;
  for (NodeId node = 0; node < 12; ++node) {
    // Node 0 is the command center: p = 1, a zero miss factor.
    NodeCollection nc{node, node == 0 ? 1.0 : rng.uniform(0.1, 0.9), {}};
    for (int k = 0; k < 20; ++k) {
      const PointOfInterest& poi = pois[static_cast<std::size_t>(rng.uniform_int(0, 23))];
      footprints.push_back(std::make_unique<PhotoFootprint>(
          model.footprint(photo_of(poi, rng.uniform(0.0, kTwoPi), next_id++))));
      nc.footprints.push_back(footprints.back().get());
    }
    env.add_collection(nc);
  }
  (void)env.total();  // warm-up: every PoI's arrays and the scratch grow once
  ASSERT_TRUE(env.remove_collection(3));
  const std::uint64_t rebuilds = env.rebuild_count();
  CoverageValue total;
  EXPECT_EQ(allocations_during([&] { total = env.total(); }), 0u);
  EXPECT_GT(env.rebuild_count(), rebuilds);  // the sweep did rebuild PoIs
  EXPECT_GT(total.point, 0.0);
}

TEST(AllocGuard, ArcAddWithSpareCapacityDoesNotAllocate) {
  ArcSet set;
  for (int k = 0; k < 8; ++k) set.add(Arc{0.1 + 0.7 * k, 0.2});
  set.add(Arc{0.05, 1.6});  // absorbs the first three intervals
  ASSERT_EQ(set.intervals().size(), 6u);
  EXPECT_EQ(allocations_during([&] {
              set.add(Arc{2.55, 0.05});  // lands in a gap: one more interval
              set.add(Arc{2.0, 1.5});    // absorbs a run of three
              set.add(Arc{6.0, 0.5});    // wraps: one piece each side of 0
            }),
            0u);
  EXPECT_EQ(set.intervals().size(), 6u);
}

TEST(AllocGuard, MergingOnlyStaleGossipDoesNotAllocate) {
  const PoiList pois{PointOfInterest{0, {0.0, 0.0}, 1.0, {}}};
  const CoverageModel model(pois, deg_to_rad(30.0));
  std::vector<PhotoMeta> photos;
  for (PhotoId id = 1; id <= 5; ++id) photos.push_back(photo_of(pois[0], 0.5 * id, id));
  MetadataCache mine;
  MetadataCache offered;
  for (NodeId owner = 1; owner <= 10; ++owner) {
    MetadataEntry e;
    e.owner = owner;
    e.snapshot = std::make_shared<const MetadataSnapshot>(photos, model);
    e.lambda = 1e-4;
    e.delivery_prob = 0.5;
    // Older than ours, or (for even owners) exactly as old: both are stale.
    e.observed_at = owner % 2 == 0 ? 100.0 : 50.0;
    offered.update(e);
    e.observed_at = 100.0;
    mine.update(e);
  }
  std::size_t accepted = 1;
  EXPECT_EQ(allocations_during([&] { accepted = mine.merge_from(offered, 0); }), 0u);
  EXPECT_EQ(accepted, 0u);
}

TEST(AllocGuard, AcceptingFresherGossipCopiesOnlyAPointer) {
  // Every offered entry is fresher than the cached one for the same owner
  // and holds more photos: accepting it shares the offered snapshot.
  Rng rng(17);
  const PoiList pois{PointOfInterest{0, {0.0, 0.0}, 1.0, {}}};
  const CoverageModel model(pois, deg_to_rad(30.0));
  MetadataCache mine;
  MetadataCache offered;
  PhotoId next_id = 1;
  for (NodeId owner = 1; owner <= 10; ++owner) {
    auto photos = [&](int n) {
      std::vector<PhotoMeta> out;
      for (int k = 0; k < n; ++k)
        out.push_back(photo_of(pois[0], rng.uniform(0.0, kTwoPi), next_id++));
      return out;
    };
    MetadataEntry e;
    e.owner = owner;
    e.lambda = 1e-4;
    e.delivery_prob = 0.5;
    e.observed_at = 50.0;
    e.snapshot = std::make_shared<const MetadataSnapshot>(photos(2), model);
    mine.update(e);
    e.observed_at = 100.0;
    e.snapshot = std::make_shared<const MetadataSnapshot>(photos(9), model);
    offered.update(e);
  }
  std::size_t accepted = 0;
  EXPECT_EQ(allocations_during([&] { accepted = mine.merge_from(offered, 0); }), 0u);
  EXPECT_EQ(accepted, 10u);
  EXPECT_EQ(mine.find(4)->snapshot, offered.find(4)->snapshot);  // shared, not copied
  EXPECT_EQ(mine.find(4)->snapshot->photos.size(), 9u);
}

/// An environment of `nodes` collections over random PoIs, each loaded by
/// a digest it shares with the caller (`digests[node]`), plus the photos'
/// footprints.
struct DigestRig {
  PoiList pois;
  std::unique_ptr<CoverageModel> model;
  std::vector<std::unique_ptr<PhotoFootprint>> footprints;
  std::vector<std::shared_ptr<const ArcDigest>> digests;
  std::vector<double> probs;

  DigestRig(Rng& rng, NodeId nodes) {
    for (std::int32_t i = 0; i < 24; ++i)
      pois.push_back(PointOfInterest{
          i, {rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)}, 1.0, {}});
    model = std::make_unique<CoverageModel>(pois, deg_to_rad(30.0));
    PhotoId next_id = 1;
    for (NodeId node = 0; node < nodes; ++node) {
      std::vector<const PhotoFootprint*> fps;
      for (int k = 0; k < 20; ++k) {
        const PointOfInterest& poi =
            pois[static_cast<std::size_t>(rng.uniform_int(0, 23))];
        footprints.push_back(std::make_unique<PhotoFootprint>(
            model->footprint(photo_of(poi, rng.uniform(0.0, kTwoPi), next_id++))));
        fps.push_back(footprints.back().get());
      }
      digests.push_back(std::make_shared<const ArcDigest>(fps));
      probs.push_back(node == 0 ? 1.0 : rng.uniform(0.1, 0.9));
    }
  }
};

TEST(AllocGuard, WarmedGreedyPhaseDoesNotAllocate) {
  Rng rng(18);
  DigestRig rig(rng, 8);
  SelectionEnvironment env(*rig.model);
  for (NodeId node = 0; node < 8; ++node)
    env.add_collection(node, rig.probs[static_cast<std::size_t>(node)],
                       rig.digests[static_cast<std::size_t>(node)]);
  std::vector<const PhotoFootprint*> candidates;
  for (const auto& fp : rig.footprints) candidates.push_back(fp.get());
  std::vector<CoverageValue> gains(candidates.size());
  GreedyPhase::Buffers buffers;
  auto run_phase = [&] {
    GreedyPhase phase(env, 0.7, buffers);
    for (std::size_t i = 0; i < candidates.size(); ++i) gains[i] = phase.gain(*candidates[i]);
    for (std::size_t i = 0; i < candidates.size(); i += 3) phase.commit(*candidates[i]);
    for (std::size_t i = 0; i < candidates.size(); ++i) gains[i] = phase.gain(*candidates[i]);
  };
  run_phase();  // warm-up: the buffers and the environment's PoIs grow once
  EXPECT_EQ(allocations_during(run_phase), 0u);
  EXPECT_FALSE(buffers.in_use);
  for (std::size_t poi = 0; poi < rig.pois.size(); ++poi) {
    EXPECT_TRUE(buffers.own_arcs[poi].empty()) << poi;
    EXPECT_EQ(buffers.own_covered[poi], 0) << poi;
  }
}

TEST(AllocGuard, WarmedSelectAllocatesOnlyItsResult) {
  Rng rng(20);
  DigestRig rig(rng, 8);
  SelectionEnvironment env(*rig.model);
  for (NodeId node = 0; node < 8; ++node)
    env.add_collection(node, rig.probs[static_cast<std::size_t>(node)],
                       rig.digests[static_cast<std::size_t>(node)]);
  std::vector<PhotoMeta> pool;
  for (PhotoId id = 1000; id < 1060; ++id) {
    const PointOfInterest& poi = rig.pois[static_cast<std::size_t>(rng.uniform_int(0, 23))];
    pool.push_back(photo_of(poi, rng.uniform(0.0, kTwoPi), id));
    pool.back().size_bytes = 1'000'000;
  }
  const GreedySelector selector;
  GreedyPhase::Buffers buffers;
  std::vector<PhotoId> chosen;
  auto run_select = [&] {
    GreedyPhase phase(env, 0.7, buffers);
    chosen = selector.select(*rig.model, pool, 40'000'000, phase);
  };
  run_select();  // warm-up: footprints, heap, buffers and PoIs grow once
  const std::vector<PhotoId> warm = chosen;
  ASSERT_GT(warm.size(), 8u);  // the result grows through several capacities
  std::vector<PhotoId> ids;
  const std::size_t result_allocations = allocations_during([&] {
    for (const PhotoId id : warm) ids.push_back(id);
  });
  EXPECT_EQ(allocations_during(run_select), result_allocations);
  EXPECT_EQ(chosen, warm);
  EXPECT_GT(selector.last_stats().reevals, 0u);  // the heap re-evaluated stale gains
  EXPECT_FALSE(buffers.in_use);
}

TEST(AllocGuard, ReloadingASharedDigestDoesNotAllocate) {
  Rng rng(19);
  DigestRig rig(rng, 12);
  SelectionEnvironment env(*rig.model);
  for (NodeId node = 0; node < 12; ++node)
    env.add_collection(node, rig.probs[static_cast<std::size_t>(node)],
                       rig.digests[static_cast<std::size_t>(node)]);
  auto reload = [&] {
    ASSERT_TRUE(env.remove_collection(5));
    env.add_collection(5, rig.probs[5], rig.digests[5]);
    (void)env.total();
  };
  (void)env.total();
  reload();  // warm-up
  EXPECT_EQ(allocations_during(reload), 0u);
  EXPECT_EQ(env.collection_count(), 12u);
  EXPECT_EQ(rig.digests[5].use_count(), 2);  // the caller's and the engine's
}

TEST(AllocGuard, WarmedPhotoStoreChurnsWithoutAllocating) {
  // A full bounded store (cam-flood's 67 photos) that evicts one photo for
  // every one it takes: each add reuses the slot a removal freed, and the
  // index and the order keep their size.
  constexpr PhotoId kHeld = 67;
  PhotoStore store(kHeld * 100);
  PhotoMeta p;
  p.size_bytes = 100;
  for (PhotoId id = 1; id <= kHeld; ++id) {
    p.id = id;
    p.taken_at = static_cast<double>(id % 7);
    ASSERT_TRUE(store.add(p));
  }
  PhotoId next = kHeld + 1;
  auto churn = [&] {
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(store.remove(next - kHeld));
      p.id = next++;
      p.taken_at = static_cast<double>(p.id % 7);
      ASSERT_TRUE(store.add(p));
      ASSERT_TRUE(store.contains(p.id));
    }
  };
  churn();  // warm-up
  EXPECT_EQ(allocations_during(churn), 0u);
  EXPECT_EQ(store.size(), kHeld);
}

TEST(AllocGuard, WarmedProphetEncounterDoesNotAllocate) {
  // Once each table spans every peer it will learn, an encounter updates
  // both tables in place: no copy of either.
  ProphetConfig cfg;
  std::vector<ProphetTable> tables;
  for (NodeId id = 0; id < 20; ++id) tables.emplace_back(cfg, id);
  double now = 0.0;
  auto meet_all = [&] {
    for (NodeId a = 0; a < 20; ++a) {
      for (NodeId b = a + 1; b < 20; ++b) {
        now += 30.0;
        ProphetTable::encounter(tables[static_cast<std::size_t>(a)],
                                tables[static_cast<std::size_t>(b)], now);
      }
    }
  };
  meet_all();  // warm-up: every table learns every peer
  EXPECT_EQ(allocations_during(meet_all), 0u);
  EXPECT_GT(tables[3].delivery_prob(17), 0.0);
}

}  // namespace
}  // namespace photodtn

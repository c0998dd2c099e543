// The engine's shared-digest path against its owning one. A collection
// loaded through an ArcDigest it shares with other holders must leave the
// engine exactly as adding the same NodeCollection does: the same cover
// lists in the same order, and the same bits from every query, over random
// add / extend / remove sequences. Growing a collection must never change
// what another engine sharing its digest sees, and a checkpoint of an
// engine holding shared digests must restore to the same bytes and queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geometry/angle.h"
#include "persist/state_access.h"
#include "selection/poi_cover.h"
#include "selection/selection_env.h"
#include "util/rng.h"

namespace photodtn {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// PoIs (every third with an aspect profile), a pool of photo footprints
/// over them, and per PoI the angles where a miss function can have a cut.
struct Scene {
  PoiList pois;
  std::unique_ptr<CoverageModel> model;
  std::vector<std::unique_ptr<PhotoFootprint>> footprints;
  std::vector<std::vector<double>> probes;

  explicit Scene(Rng& rng) {
    for (std::int32_t i = 0; i < 16; ++i) {
      PointOfInterest poi{
          i, {rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0)}, 1.0, {}};
      if (i % 3 == 0) {
        auto profile = std::make_shared<AspectProfile>();
        profile->set_band(Arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.3, 2.0)},
                          rng.uniform(0.5, 3.0));
        poi.aspect_profile = std::move(profile);
      }
      pois.push_back(std::move(poi));
    }
    model = std::make_unique<CoverageModel>(pois, deg_to_rad(rng.uniform(10.0, 60.0)));
    probes.resize(pois.size(), {0.0});
    for (PhotoId id = 1; id <= 90; ++id) {
      const PointOfInterest& target =
          pois[static_cast<std::size_t>(rng.uniform_int(0, 15))];
      const double from = rng.uniform(0.0, kTwoPi);
      PhotoMeta p;
      p.id = id;
      p.location = target.location + Vec2{150.0 * std::cos(from), 150.0 * std::sin(from)};
      p.orientation = normalize_angle(from + kTwoPi / 2.0 + rng.uniform(-0.3, 0.3));
      p.range = 400.0;
      p.fov = deg_to_rad(rng.uniform(40.0, 120.0));
      footprints.push_back(std::make_unique<PhotoFootprint>(model->footprint(p)));
      for (const PoiArc& pa : footprints.back()->arcs) {
        const double s = normalize_angle(pa.arc.start);
        std::vector<double>& at = probes[pa.poi_index];
        const double e = s + pa.arc.length;
        at.insert(at.end(), {s, normalize_angle(e), e - kTwoPi});
      }
    }
    for (std::size_t i = 0; i < pois.size(); ++i) {
      std::vector<double>& at = probes[i];
      if (const AspectProfile* profile = pois[i].profile())
        at.insert(at.end(), profile->breakpoints().begin(), profile->breakpoints().end());
      std::erase_if(at, [](double a) { return !(a >= 0.0 && a < kTwoPi); });
      std::sort(at.begin(), at.end());
      at.erase(std::unique(at.begin(), at.end()), at.end());
      const std::size_t cuts = at.size();
      for (std::size_t k = 0; k < cuts; ++k) {
        const double hi = k + 1 < cuts ? at[k + 1] : kTwoPi;
        at.push_back(at[k] + (hi - at[k]) / 2.0);
      }
    }
  }

  std::vector<const PhotoFootprint*> draw(Rng& rng, int n) const {
    std::vector<const PhotoFootprint*> out;
    for (int k = 0; k < n; ++k)
      out.push_back(footprints[static_cast<std::size_t>(
                                   rng.uniform_int(0, static_cast<std::int64_t>(
                                                          footprints.size()) - 1))]
                        .get());
    return out;
  }

  std::vector<const PhotoFootprint*> all() const {
    std::vector<const PhotoFootprint*> out;
    for (const auto& fp : footprints) out.push_back(fp.get());
    return out;
  }
};

/// The engine's checkpoint bytes: its cover lists in list order (node, p,
/// interval bits), dirty flags, rebuild count and registry.
std::string engine_bytes(const SelectionEnvironment& env) {
  persist::StateWriter w;
  persist::StateAccess::save(w, env);
  return w.take();
}

/// Every query of two engines over the same model, bit for bit: per PoI the
/// point miss and the aspect miss function at and between every possible
/// cut, C_ex, and the gains of every footprint in a phase that committed
/// the same photos on both.
void expect_same_queries(const SelectionEnvironment& got,
                         const SelectionEnvironment& want, const Scene& scene,
                         const std::string& where) {
  for (std::size_t poi = 0; poi < scene.pois.size(); ++poi) {
    const std::string at_poi = where + " poi " + std::to_string(poi);
    ASSERT_EQ(bits(got.point_miss(poi)), bits(want.point_miss(poi))) << at_poi;
    const PiecewiseMiss& g = got.aspect_miss(poi);
    const PiecewiseMiss& w = want.aspect_miss(poi);
    ASSERT_EQ(g.segment_count(), w.segment_count()) << at_poi;
    ASSERT_EQ(bits(g.full_integral()), bits(w.full_integral())) << at_poi;
    for (const double x : scene.probes[poi]) {
      ASSERT_EQ(bits(g.value_at(x)), bits(w.value_at(x))) << at_poi << " at " << x;
      ASSERT_EQ(bits(g.integral(0.0, x)), bits(w.integral(0.0, x)))
          << at_poi << " at " << x;
      ASSERT_EQ(bits(g.integral(x, kTwoPi)), bits(w.integral(x, kTwoPi)))
          << at_poi << " at " << x;
    }
  }
  const CoverageValue tg = got.total();
  const CoverageValue tw = want.total();
  ASSERT_EQ(bits(tg.point), bits(tw.point)) << where;
  ASSERT_EQ(bits(tg.aspect), bits(tw.aspect)) << where;

  const std::vector<const PhotoFootprint*> candidates = scene.all();
  GreedyPhase pg(got, 0.6);
  GreedyPhase pw(want, 0.6);
  for (std::size_t i = 0; i < candidates.size(); i += 11) {
    pg.commit(*candidates[i]);
    pw.commit(*candidates[i]);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CoverageValue gg = pg.gain(*candidates[i]);
    const CoverageValue gw = pw.gain(*candidates[i]);
    ASSERT_EQ(bits(gg.point), bits(gw.point)) << where << " candidate " << i;
    ASSERT_EQ(bits(gg.aspect), bits(gw.aspect)) << where << " candidate " << i;
  }
}

TEST(SharedDigest, LoadingByDigestMatchesAddingTheCollectionBitwise) {
  Rng rng(1701);
  for (int trial = 0; trial < 25; ++trial) {
    const Scene scene(rng);
    // `owning` adds NodeCollections; `shared` loads the same collections by
    // digests it shares with `viewer`, which loads every digest `shared`
    // does but is never extended. `viewer_ref` mirrors `viewer` through
    // NodeCollections.
    SelectionEnvironment owning(*scene.model), shared(*scene.model);
    SelectionEnvironment viewer(*scene.model), viewer_ref(*scene.model);
    std::map<NodeId, double> probs;
    for (int step = 0; step < 30; ++step) {
      const NodeId node = static_cast<NodeId>(rng.uniform_int(0, 7));
      const double pick = rng.uniform(0.0, 1.0);
      const std::string where =
          "trial " + std::to_string(trial) + " step " + std::to_string(step);
      if (!probs.contains(node)) {
        const double p = node == 0 ? 1.0 : rng.uniform(0.0, 1.0);
        const int photos = static_cast<int>(rng.uniform_int(0, 9));
        NodeCollection nc{node, p, scene.draw(rng, photos)};
        const auto digest = std::make_shared<const ArcDigest>(nc.footprints);
        owning.add_collection(nc);
        shared.add_collection(node, p, digest);
        viewer.add_collection(node, p, digest);
        viewer_ref.add_collection(nc);
        probs[node] = p;
      } else if (pick < 0.6) {
        // Grow a collection whose digest `viewer` shares: `viewer` must not
        // see the change.
        const std::string before = engine_bytes(viewer);
        const auto extra = scene.draw(rng, static_cast<int>(rng.uniform_int(0, 5)));
        owning.extend_collection(node, probs[node], extra);
        shared.extend_collection(node, probs[node], extra);
        ASSERT_EQ(engine_bytes(viewer), before) << where;
      } else {
        ASSERT_TRUE(owning.remove_collection(node));
        ASSERT_TRUE(shared.remove_collection(node));
        ASSERT_TRUE(viewer.remove_collection(node));
        ASSERT_TRUE(viewer_ref.remove_collection(node));
        probs.erase(node);
      }
      ASSERT_EQ(engine_bytes(shared), engine_bytes(owning)) << where;
      ASSERT_EQ(engine_bytes(viewer), engine_bytes(viewer_ref)) << where;
      if (step % 5 == 4) {
        expect_same_queries(shared, owning, scene, where);
        expect_same_queries(viewer, viewer_ref, scene, where);
        shared.audit();
        viewer.audit();
      }
    }
  }
}

TEST(SharedDigest, CheckpointOfSharedDigestsRoundTripsBytesAndQueries) {
  Rng rng(1702);
  for (int trial = 0; trial < 10; ++trial) {
    const Scene scene(rng);
    SelectionEnvironment env(*scene.model);
    std::vector<std::shared_ptr<const ArcDigest>> held;  // another holder of each digest
    for (NodeId node = 0; node < 8; ++node) {
      held.push_back(std::make_shared<const ArcDigest>(
          scene.draw(rng, static_cast<int>(rng.uniform_int(1, 9)))));
      env.add_collection(node, node == 0 ? 1.0 : rng.uniform(0.05, 0.95), held.back());
    }
    env.extend_collection(0, 1.0, scene.draw(rng, 4));
    ASSERT_TRUE(env.remove_collection(3));
    // Leave some PoIs clean and some dirty at the checkpoint.
    (void)env.total();
    ASSERT_TRUE(env.remove_collection(5));
    env.add_collection(5, 0.5, held[2]);
    const std::string saved = engine_bytes(env);

    SelectionEnvironment restored(*scene.model);
    persist::StateReader r(saved);
    persist::StateAccess::load(r, restored);
    EXPECT_TRUE(r.at_end());
    ASSERT_EQ(engine_bytes(restored), saved) << "trial " << trial;
    expect_same_queries(restored, env, scene, "trial " + std::to_string(trial));
    ASSERT_EQ(engine_bytes(restored), engine_bytes(env)) << "trial " << trial;
    restored.audit();
  }
}

}  // namespace
}  // namespace photodtn

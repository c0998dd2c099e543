// The lazy greedy path (Minoux) is only correct because marginal gains are
// submodular: committing photos never increases any other candidate's gain.
// This battery pins that property — componentwise, on both the point and
// aspect terms — plus non-negativity, on seeded random instances, with the
// deep audit() invariants of the engine, the phase and the piecewise miss
// functions exercised directly along the way.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "geometry/angle.h"
#include "selection/expected_coverage.h"
#include "selection/selection_env.h"
#include "test_util.h"
#include "util/rng.h"

namespace photodtn {
namespace {

using test::photo_viewing;

struct Scenario {
  explicit Scenario(CoverageModel m) : model(std::move(m)) {}
  CoverageModel model;
  std::vector<NodeCollection> others;
  std::vector<std::unique_ptr<PhotoFootprint>> fps;
};

Scenario random_scenario(Rng& rng) {
  const int npois = rng.uniform_int(1, 8);
  PoiList pois;
  for (int i = 0; i < npois; ++i) {
    std::shared_ptr<AspectProfile> profile;
    if (rng.bernoulli(0.25)) {
      profile = std::make_shared<AspectProfile>();
      profile->set_band(Arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.3, 2.0)},
                        rng.uniform(0.0, 4.0));
    }
    pois.push_back(PointOfInterest{i,
                                   {rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0)},
                                   rng.uniform(0.5, 2.0),
                                   std::move(profile)});
  }
  Scenario s(CoverageModel{pois, deg_to_rad(30.0)});
  const int m = rng.uniform_int(0, 4);
  for (int n = 0; n < m; ++n) {
    NodeCollection nc;
    nc.node = static_cast<NodeId>(n + 10);
    nc.delivery_prob = rng.uniform(0.05, 1.0);
    for (int k = 0; k < rng.uniform_int(0, 3); ++k) {
      const auto& poi =
          s.model.pois()[static_cast<std::size_t>(rng.uniform_int(0, npois - 1))];
      s.fps.push_back(std::make_unique<PhotoFootprint>(
          s.model.footprint(photo_viewing(poi, rng.uniform(0.0, 360.0)))));
      nc.footprints.push_back(s.fps.back().get());
    }
    s.others.push_back(std::move(nc));
  }
  return s;
}

TEST(Submodularity, MarginalGainsNeverIncreaseUnderCommits) {
  for (int seed = 0; seed < 300; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 1);
    Scenario s = random_scenario(rng);
    const int npois = static_cast<int>(s.model.pois().size());

    // Candidate pool watched for monotonicity; commit sequence drawn
    // separately so watched candidates stay un-selected.
    std::vector<PhotoFootprint> watched;
    for (int k = 0; k < 6; ++k) {
      const auto& poi =
          s.model.pois()[static_cast<std::size_t>(rng.uniform_int(0, npois - 1))];
      watched.push_back(s.model.footprint(photo_viewing(poi, rng.uniform(0.0, 360.0))));
    }

    SelectionEnvironment env(s.model, s.others);
    // GreedyParams::p_floor guards callers against p == 0; anything the
    // floor lets through must yield strictly finite, non-negative gains.
    GreedyPhase phase(env, std::max(rng.uniform(0.0, 1.0), 0.02));

    std::vector<CoverageValue> prev;
    for (const PhotoFootprint& fp : watched) prev.push_back(phase.gain(fp));

    for (int step = 0; step < 5; ++step) {
      const auto& poi =
          s.model.pois()[static_cast<std::size_t>(rng.uniform_int(0, npois - 1))];
      const PhotoFootprint committed =
          s.model.footprint(photo_viewing(poi, rng.uniform(0.0, 360.0)));
      phase.commit(committed);
      ASSERT_NO_THROW(phase.audit()) << "seed " << seed << " step " << step;
      ASSERT_NO_THROW(env.audit()) << "seed " << seed << " step " << step;

      for (std::size_t c = 0; c < watched.size(); ++c) {
        const CoverageValue g = phase.gain(watched[c]);
        // Componentwise monotone non-increasing (1e-9 arithmetic slack) and
        // non-negative: the floored p and clamped integrals keep every
        // marginal gain a real (>= 0) coverage increment.
        EXPECT_LE(g.point, prev[c].point + 1e-9)
            << "seed " << seed << " step " << step << " cand " << c;
        EXPECT_LE(g.aspect, prev[c].aspect + 1e-9)
            << "seed " << seed << " step " << step << " cand " << c;
        EXPECT_GE(g.point, -1e-12) << "seed " << seed;
        EXPECT_GE(g.aspect, -1e-12) << "seed " << seed;
        EXPECT_TRUE(std::isfinite(g.point) && std::isfinite(g.aspect))
            << "seed " << seed;
        prev[c] = g;
      }
    }
  }
}

TEST(Submodularity, PiecewiseMissAuditsPassOnRandomEnvironments) {
  // Direct deep-audit sweep: every per-PoI miss function an environment can
  // produce (uniform and weighted, dense and empty) must satisfy its
  // structural invariants. (The prefix-sum integral is held against a
  // per-segment scan in rebuild_oracle_test.cpp.)
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 40'000);
    Scenario s = random_scenario(rng);
    SelectionEnvironment env(s.model, s.others);
    for (std::size_t poi = 0; poi < s.model.pois().size(); ++poi)
      ASSERT_NO_THROW(env.aspect_miss(poi).audit()) << "seed " << seed << " poi " << poi;
    ASSERT_NO_THROW(env.audit()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace photodtn

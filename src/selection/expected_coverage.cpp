#include "selection/expected_coverage.h"

#include <algorithm>
#include <cmath>

#include "coverage/coverage_map.h"
#include "geometry/angle.h"
#include "geometry/arc_set.h"
#include "selection/poi_cover.h"
#include "util/check.h"

namespace photodtn {

CoverageValue expected_coverage_exact(const CoverageModel& model,
                                      std::span<const NodeCollection> nodes) {
  const auto index = build_poi_cover_index(model, nodes);
  CoverageValue total;
  std::vector<double> bps;
  for (std::size_t poi = 0; poi < index.size(); ++poi) {
    const auto& covers = index[poi];
    if (covers.empty()) continue;
    const double w = model.pois()[poi].weight;

    // Expected point coverage: covered unless every covering node fails.
    double miss_all = 1.0;
    for (const auto& c : covers) miss_all *= 1.0 - c.p;
    total.point += w * (1.0 - miss_all);

    // Expected aspect coverage: integrate coverage probability over the
    // circle, piecewise-constant between arc endpoints.
    bps.clear();
    for (const auto& c : covers) c.arcs.append_boundaries(bps);
    std::sort(bps.begin(), bps.end());
    bps.erase(std::unique(bps.begin(), bps.end()), bps.end());
    if (bps.empty()) {
      // Some node covers the full circle (no endpoints); treat as one segment.
      bps.push_back(0.0);
    }
    // With an aspect profile, every breakpoint of the profile must also
    // split the integration (the weight is constant between breakpoints).
    const AspectProfile* profile = model.pois()[poi].profile();
    double aspect = 0.0;
    for (std::size_t k = 0; k < bps.size(); ++k) {
      const double lo = bps[k];
      const double hi = (k + 1 < bps.size()) ? bps[k + 1] : bps[0] + kTwoPi;
      const double len = hi - lo;
      if (len <= 0.0) continue;
      const double mid = normalize_angle(lo + len / 2.0);
      double miss = 1.0;
      for (const auto& c : covers)
        if (c.arcs.contains(mid)) miss *= 1.0 - c.p;
      if (miss == 1.0) continue;
      if (profile == nullptr || profile->is_uniform()) {
        aspect += len * (1.0 - miss);
      } else {
        // The coverage probability is constant on [lo, hi); integrate the
        // profile weight over that span (may wrap past 2*pi).
        static const ArcSet kNothing;
        const double span_hi = std::min(hi, kTwoPi);
        double weighted = profile->integrate_excluding(lo, span_hi, kNothing);
        if (hi > kTwoPi)
          weighted += profile->integrate_excluding(0.0, hi - kTwoPi, kNothing);
        aspect += weighted * (1.0 - miss);
      }
    }
    total.aspect += w * aspect;
  }
  return total;
}

CoverageValue expected_coverage_enumerate(const CoverageModel& model,
                                          std::span<const NodeCollection> nodes) {
  PHOTODTN_CHECK_MSG(nodes.size() <= 20, "enumeration oracle limited to 20 nodes");
  const std::size_t m = nodes.size();
  CoverageValue total;
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    double prob = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double p = nodes[i].delivery_prob;
      prob *= (mask >> i) & 1u ? p : 1.0 - p;
    }
    if (prob == 0.0) continue;
    CoverageMap map(model);
    for (std::size_t i = 0; i < m; ++i) {
      if (!((mask >> i) & 1u)) continue;
      for (const PhotoFootprint* fp : nodes[i].footprints) map.add(*fp);
    }
    total += map.total() * prob;
  }
  return total;
}

CoverageValue expected_coverage_monte_carlo(const CoverageModel& model,
                                            std::span<const NodeCollection> nodes,
                                            Rng& rng, std::size_t samples) {
  PHOTODTN_CHECK(samples > 0);
  CoverageValue total;
  for (std::size_t s = 0; s < samples; ++s) {
    CoverageMap map(model);
    for (const NodeCollection& nc : nodes) {
      if (!rng.bernoulli(nc.delivery_prob)) continue;
      for (const PhotoFootprint* fp : nc.footprints) map.add(*fp);
    }
    total += map.total();
  }
  return total * (1.0 / static_cast<double>(samples));
}

}  // namespace photodtn

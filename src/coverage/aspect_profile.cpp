#include "coverage/aspect_profile.h"

#include <algorithm>
#include <cmath>

#include "geometry/angle.h"
#include "util/check.h"

namespace photodtn {

namespace {
constexpr double kEps = 1e-12;
}

void AspectProfile::set_band(Arc arc, double weight) {
  PHOTODTN_CHECK_MSG(weight >= 0.0, "aspect weight must be non-negative");
  PHOTODTN_CHECK_MSG(arc.length >= 0.0, "band length must be non-negative");
  if (arc.length <= kEps) return;

  // The band as a set of linear pieces.
  ArcSet band;
  band.add(arc);

  // New breakpoints: existing ones plus the band's endpoints.
  std::vector<double> bps = bps_;
  band.append_boundaries(bps);
  if (bps.empty()) bps.push_back(0.0);  // full-circle band: one segment
  std::sort(bps.begin(), bps.end());
  bps.erase(std::unique(bps.begin(), bps.end(),
                        [](double a, double b) { return std::fabs(a - b) <= kEps; }),
            bps.end());

  std::vector<double> vals(bps.size());
  for (std::size_t k = 0; k < bps.size(); ++k) {
    const double lo = bps[k];
    const double hi = (k + 1 < bps.size()) ? bps[k + 1] : bps[0] + kTwoPi;
    const double mid = normalize_angle(lo + (hi - lo) / 2.0);
    vals[k] = band.contains(mid) ? weight : weight_at(mid);
  }
  bps_ = std::move(bps);
  vals_ = std::move(vals);
}

double AspectProfile::weight_at(double angle) const noexcept {
  if (bps_.empty()) return 1.0;
  const double a = normalize_angle(angle);
  const auto it = std::upper_bound(bps_.begin(), bps_.end(), a);
  const std::size_t k =
      it == bps_.begin() ? bps_.size() - 1
                         : static_cast<std::size_t>(std::distance(bps_.begin(), it)) - 1;
  return vals_[k];
}

double AspectProfile::total() const noexcept {
  if (bps_.empty()) return kTwoPi;
  double sum = 0.0;
  for (std::size_t k = 0; k < bps_.size(); ++k) {
    const double lo = bps_[k];
    const double hi = (k + 1 < bps_.size()) ? bps_[k + 1] : bps_[0] + kTwoPi;
    sum += vals_[k] * (hi - lo);
  }
  return sum;
}

double AspectProfile::integrate_excluding(double lo, double hi,
                                          const ArcSet& exclude) const {
  PHOTODTN_CHECK(lo >= -1e-12 && hi <= kTwoPi + 1e-12 && lo <= hi + 1e-12);
  lo = std::max(lo, 0.0);
  hi = std::min(hi, kTwoPi);
  if (hi <= lo) return 0.0;
  auto piece = [&](double l, double h, double w) {
    if (h <= l || w == 0.0) return 0.0;
    const double len = (h - l) - exclude.overlap_linear(l, h);
    return w * std::max(0.0, len);
  };
  if (bps_.empty()) return piece(lo, hi, 1.0);
  double sum = 0.0;
  const std::size_t n = bps_.size();
  for (std::size_t k = 0; k + 1 < n; ++k)
    sum += piece(std::max(lo, bps_[k]), std::min(hi, bps_[k + 1]), vals_[k]);
  // Wrapping last segment: [bps_[n-1], 2*pi) and [0, bps_[0]).
  sum += piece(std::max(lo, bps_[n - 1]), hi, vals_[n - 1]);
  sum += piece(lo, std::min(hi, bps_[0]), vals_[n - 1]);
  return sum;
}

double AspectProfile::integrate_set(const ArcSet& set) const {
  static const ArcSet kNothing;
  double sum = 0.0;
  for (const auto& [lo, hi] : set.intervals())
    sum += integrate_excluding(lo, hi, kNothing);
  return sum;
}

double profile_gain(const AspectProfile* profile, Arc arc, const ArcSet& existing) {
  if (profile == nullptr || profile->is_uniform()) return existing.gain(arc);
  if (arc.length <= kEps) return 0.0;
  const double start = normalize_angle(arc.start);
  const double end = start + std::min(arc.length, kTwoPi);
  if (end <= kTwoPi) return profile->integrate_excluding(start, end, existing);
  return profile->integrate_excluding(start, kTwoPi, existing) +
         profile->integrate_excluding(0.0, end - kTwoPi, existing);
}

double profile_measure(const AspectProfile* profile, const ArcSet& set) {
  if (profile == nullptr || profile->is_uniform()) return set.measure();
  return profile->integrate_set(set);
}

}  // namespace photodtn

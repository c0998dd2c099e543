// Test-only oracles: arc insertion and the per-PoI miss-function build
// exactly as they were before both ran in place (geometry/arc_set.cpp,
// selection/selection_env.cpp). Insertion builds a new interval vector per
// call; the build allocates fresh cut, event and output arrays per call and
// extracts each set's boundaries into a vector of its own. They are slow and
// obviously right; tests/selection/rebuild_oracle_test.cpp requires the
// production code to match them bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "coverage/aspect_profile.h"
#include "geometry/arc_set.h"

namespace photodtn::test {

using Intervals = std::vector<std::pair<double, double>>;

/// ArcSet::add over a bare canonical interval list.
void reference_add(Intervals& intervals, Arc arc);

/// ArcSet::unite over bare canonical interval lists.
void reference_unite(Intervals& intervals, const Intervals& other);

/// PiecewiseMiss as a from-scratch build, with the production query code.
class ReferencePiecewiseMiss {
 public:
  static ReferencePiecewiseMiss build(
      std::span<const std::pair<double, const ArcSet*>> covers,
      const AspectProfile* profile = nullptr);

  double value_at(double angle) const noexcept;
  double integral(double lo, double hi) const noexcept;
  double full_integral() const noexcept;
  std::size_t segment_count() const noexcept { return cuts_.size(); }
  const std::vector<double>& cuts() const noexcept { return cuts_; }

 private:
  std::size_t segment_of(double a) const noexcept;

  static constexpr std::size_t kLutMinSegments = 32;
  std::vector<double> cuts_;
  std::vector<double> vals_;
  std::vector<double> weights_;
  std::vector<double> rates_;
  std::vector<double> prefix_;
  std::vector<std::uint32_t> lut_;
  double lut_scale_ = 0.0;
  double constant_ = 1.0;
};

}  // namespace photodtn::test

// Test-only oracles: arc insertion and the per-PoI miss-function build
// exactly as they were before both ran in place (geometry/arc_set.cpp,
// selection/selection_env.cpp), the per-segment scan integral the prefix
// sums replaced, and plain greedy selection, which CELF replaced. Insertion
// builds a new interval vector per call; the build allocates fresh cut,
// event and output arrays per call and extracts each set's boundaries into
// a vector of its own. They are slow and obviously right; the tests under
// tests/selection/ require the production code to match them.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "coverage/aspect_profile.h"
#include "coverage/coverage_model.h"
#include "geometry/arc_set.h"
#include "selection/greedy_selector.h"
#include "selection/selection_env.h"

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

  /// PiecewiseMiss::integrate_excluding by a scan over every segment,
  /// subtracting each segment's overlap with `exclude`: O(segments x
  /// excluded intervals) where the production code is O(log segments) per
  /// excluded interval. Agrees with it to floating-point dust.
  double integrate_excluding_scan(double lo, double hi, const ArcSet& exclude) const;

 private:
  std::size_t segment_of(double a) const noexcept;

  std::vector<double> cuts_;
  std::vector<double> vals_;
  std::vector<double> weights_;
  std::vector<double> rates_;
  std::vector<double> prefix_;
  double constant_ = 1.0;
};

/// GreedySelector::select as plain greedy: each round evaluates every
/// candidate that still fits with GreedyPhase::gain, and takes the best,
/// the lower PhotoId on an exact tie, while its gain exceeds `eps` on
/// some component (the boundary is exclusive). Advances `phase` by the
/// commits and returns the chosen ids in order.
std::vector<PhotoId> plain_greedy_select(const CoverageModel& model,
                                         std::span<const PhotoMeta> pool,
                                         std::uint64_t capacity_bytes,
                                         GreedyPhase& phase, double eps);

/// The two paths the equivalence tests compare, on the same inputs:
/// GreedySelector::select (CELF, lazy re-evaluation) when `lazy`, else
/// plain_greedy_select, both with the given eps.
std::vector<PhotoId> greedy_select(bool lazy, const CoverageModel& model,
                                   std::span<const PhotoMeta> pool,
                                   std::uint64_t capacity_bytes, GreedyPhase& phase,
                                   double eps = GreedyParams{}.eps);

}  // namespace photodtn::test

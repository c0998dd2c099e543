// Per-PoI views of node collections: each collection's arcs unioned per PoI
// (the arc digest), the cover entries the selection engine keeps per PoI,
// and the owning per-PoI index the exact expected-coverage evaluator builds.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/arc_set.h"
#include "selection/expected_coverage.h"

namespace photodtn {

/// One node's unioned arcs on one PoI, owning its arc set. The exact
/// evaluator's representation (build_poi_cover_index).
struct NodePoiCover {
  NodeId node = -1;
  double p = 0.0;
  ArcSet arcs;
};

/// One node's unioned arcs on one PoI as the selection engine holds them:
/// a view of the intervals in the node's arc digest, which the engine keeps
/// alive while the collection is loaded.
struct CoverView {
  NodeId node = -1;
  double p = 0.0;
  std::span<const ArcInterval> arcs;
};

/// The arcs a collection's photos put on the PoIs they cover: the PoIs in
/// ascending order, each with the canonical intervals of the union of its
/// arcs, added in footprint order. Flat arrays, so a digest is a handful of
/// allocations however many PoIs it covers. A metadata snapshot builds its
/// digest once and every engine that loads the snapshot shares it.
class ArcDigest {
 public:
  ArcDigest() = default;

  /// The union of `footprints`' arcs, per PoI.
  explicit ArcDigest(std::span<const PhotoFootprint* const> footprints);

  /// Appends one PoI's canonical intervals. PoIs must be appended in
  /// strictly ascending order.
  void append(std::size_t poi, std::span<const ArcInterval> intervals);

  /// Number of PoIs covered.
  std::size_t size() const noexcept { return pois_.size(); }
  bool empty() const noexcept { return pois_.empty(); }
  /// The k-th covered PoI (ascending in k) and its intervals.
  std::size_t poi(std::size_t k) const noexcept { return pois_[k]; }
  std::span<const ArcInterval> arcs(std::size_t k) const noexcept {
    const std::size_t begin = k == 0 ? 0 : ends_[k - 1];
    return {intervals_.data() + begin, ends_[k] - begin};
  }
  /// The k with poi(k) == poi, or size() when the PoI is not covered.
  std::size_t find(std::size_t poi) const noexcept;

  /// Deep invariant check (audit builds / tests): PoIs strictly ascending,
  /// each PoI's intervals canonical. Throws std::logic_error on violation.
  void audit() const;

 private:
  std::vector<std::size_t> pois_;
  std::vector<std::size_t> ends_;  // ends_[k]: one past pois_[k]'s last interval
  std::vector<ArcInterval> intervals_;
};

/// poi index -> covering nodes. Nodes contributing no arcs to a PoI do not
/// appear in that PoI's list.
std::vector<std::vector<NodePoiCover>> build_poi_cover_index(
    const CoverageModel& model, std::span<const NodeCollection> nodes);

}  // namespace photodtn

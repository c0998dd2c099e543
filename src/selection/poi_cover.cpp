#include "selection/poi_cover.h"

#include <algorithm>

#include "util/check.h"

namespace photodtn {

ArcDigest::ArcDigest(std::span<const PhotoFootprint* const> footprints) {
  // The selection engine's one per-PoI arc union. Every arc is placed by
  // (PoI, footprint position), a total order, so an in-place sort groups
  // each PoI's arcs in footprint order without a stable sort's buffer.
  struct Placed {
    std::size_t poi;
    std::size_t pos;
    const Arc* arc;
  };
  std::size_t count = 0;
  for (const PhotoFootprint* fp : footprints) count += fp->arcs.size();
  std::vector<Placed> arcs;
  arcs.reserve(count);
  for (const PhotoFootprint* fp : footprints)
    for (const PoiArc& pa : fp->arcs)
      arcs.push_back({pa.poi_index, arcs.size(), &pa.arc});
  std::sort(arcs.begin(), arcs.end(), [](const Placed& x, const Placed& y) {
    return x.poi != y.poi ? x.poi < y.poi : x.pos < y.pos;
  });
  // Sized once: one entry per distinct PoI, and rarely more intervals than
  // arcs (only an arc across angle 0 adds a piece, and unions merge).
  std::size_t npois = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i)
    if (i == 0 || arcs[i].poi != arcs[i - 1].poi) ++npois;
  pois_.reserve(npois);
  ends_.reserve(npois);
  intervals_.reserve(arcs.size());
  ArcSet united;
  for (std::size_t i = 0; i < arcs.size();) {
    const std::size_t poi = arcs[i].poi;
    united.clear();
    for (; i < arcs.size() && arcs[i].poi == poi; ++i) united.add(*arcs[i].arc);
    append(poi, united.intervals());
  }
}

void ArcDigest::append(std::size_t poi, std::span<const ArcInterval> intervals) {
  PHOTODTN_CHECK_MSG(pois_.empty() || pois_.back() < poi,
                     "arc digest PoIs must be appended in ascending order");
  pois_.push_back(poi);
  intervals_.insert(intervals_.end(), intervals.begin(), intervals.end());
  ends_.push_back(intervals_.size());
}

std::size_t ArcDigest::find(std::size_t poi) const noexcept {
  const auto it = std::lower_bound(pois_.begin(), pois_.end(), poi);
  return it != pois_.end() && *it == poi ? static_cast<std::size_t>(it - pois_.begin())
                                         : pois_.size();
}

void ArcDigest::audit() const {
  PHOTODTN_CHECK_MSG(ends_.size() == pois_.size() &&
                         (ends_.empty() ? intervals_.empty()
                                        : ends_.back() == intervals_.size()),
                     "arc digest offsets must cover its intervals");
  for (std::size_t k = 0; k < pois_.size(); ++k) {
    PHOTODTN_CHECK_MSG(k == 0 || (pois_[k - 1] < pois_[k] && ends_[k - 1] <= ends_[k]),
                       "arc digest PoIs must ascend");
    audit_arcs(arcs(k));
  }
}

std::vector<std::vector<NodePoiCover>> build_poi_cover_index(
    const CoverageModel& model, std::span<const NodeCollection> nodes) {
  std::vector<std::vector<NodePoiCover>> index(model.pois().size());
  for (const NodeCollection& nc : nodes) {
    const ArcDigest digest(nc.footprints);
    for (std::size_t k = 0; k < digest.size(); ++k) {
      NodePoiCover& cover = index[digest.poi(k)].emplace_back();
      cover.node = nc.node;
      cover.p = nc.delivery_prob;
      cover.arcs.assign(digest.arcs(k));
    }
  }
  return index;
}

}  // namespace photodtn

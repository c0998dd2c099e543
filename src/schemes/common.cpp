#include "schemes/common.h"

#include <string>

#include "geometry/angle.h"
#include "persist/state_access.h"

namespace photodtn {

std::vector<PhotoMeta> sorted_photos(const PhotoStore& store) {
  std::vector<PhotoMeta> out;
  out.reserve(store.size());
  for (const PhotoMeta* p : store.ordered()) out.push_back(*p);
  return out;
}

CoverageValue standalone_value(const CoverageModel& model, const PhotoMeta& photo) {
  static const ArcSet kNothing;
  const PhotoFootprint& fp = model.footprint_cached(photo);
  CoverageValue v;
  for (const PoiArc& pa : fp.arcs) {
    const PointOfInterest& poi = model.pois()[pa.poi_index];
    v.point += poi.weight;
    v.aspect += poi.weight * profile_gain(poi.profile(), pa.arc, kNothing);
  }
  return v;
}

std::vector<PhotoMeta> union_pool(const PhotoStore& a, const PhotoStore& b) {
  std::vector<PhotoMeta> pool = sorted_photos(a);
  for (const PhotoMeta* p : b.ordered())
    if (!a.contains(p->id)) pool.push_back(*p);
  return pool;
}

void save_spray_counters(
    persist::StateWriter& w,
    const std::unordered_map<NodeId, SprayCounter>& counters) {
  using persist::StateAccess;
  const auto nodes = StateAccess::sorted_keys(counters);
  w.u64(nodes.size());
  for (const NodeId node : nodes) {
    w.i32(node);
    StateAccess::save(w, counters.at(node));
  }
}

void load_spray_counters(persist::StateReader& r,
                         std::unordered_map<NodeId, SprayCounter>& counters,
                         std::uint32_t expected_copies) {
  using persist::StateAccess;
  const std::size_t n = r.count(16);
  counters.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node = r.i32();
    if (counters.count(node) != 0) r.fail("duplicate spray-counter node");
    SprayCounter& c = counters.emplace(node, SprayCounter{expected_copies}).first->second;
    StateAccess::load(r, c);
    if (c.initial_copies() != expected_copies) {
      r.fail("spray counter L=" + std::to_string(c.initial_copies()) +
             " does not match the scheme's configured L=" +
             std::to_string(expected_copies));
    }
  }
}

}  // namespace photodtn

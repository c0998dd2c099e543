#include "core/photocrowd.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace photodtn {

PhotoCrowdTask::PhotoCrowdTask(PoiList pois, double effective_angle, double deadline_s)
    : model_(std::move(pois), effective_angle), deadline_s_(deadline_s) {}

CoverageValue PhotoCrowdTask::coverage(std::span<const PhotoMeta> photos) const {
  CoverageMap map(model_);
  for (const PhotoMeta& p : photos) map.add(model_.footprint_cached(p));
  return map.total();
}

std::pair<double, double> PhotoCrowdTask::normalized_coverage(
    std::span<const PhotoMeta> photos) const {
  CoverageMap map(model_);
  for (const PhotoMeta& p : photos) map.add(model_.footprint_cached(p));
  return {map.normalized_point(), map.normalized_aspect()};
}

bool PhotoCrowdTask::is_relevant(const PhotoMeta& photo) const {
  return model_.footprint_cached(photo).relevant();
}

DeviceAgent::DeviceAgent(const PhotoCrowdTask& task, NodeId self,
                         std::uint64_t storage_bytes, double p_thld)
    : task_(&task),
      self_(self),
      storage_bytes_(storage_bytes),
      cache_(p_thld) {}

void DeviceAgent::learn_metadata(MetadataEntry entry) {
  PHOTODTN_CHECK_MSG(entry.owner != self_, "a device is the authority on itself");
  cache_.update(std::move(entry));
}

std::vector<NodeCollection> DeviceAgent::environment(NodeId exclude_a, NodeId exclude_b,
                                                     double now) const {
  std::vector<NodeCollection> env;
  for (const MetadataEntry* e : cache_.valid_entries(now)) {
    if (e->owner == exclude_a || e->owner == exclude_b) continue;
    NodeCollection nc;
    nc.node = e->owner;
    nc.delivery_prob = e->owner == kCommandCenter ? 1.0 : e->delivery_prob;
    for (const PhotoMeta& p : e->snapshot->photos) {
      const PhotoFootprint& fp = task_->model().footprint_cached(p);
      if (fp.relevant()) nc.footprints.push_back(&fp);
    }
    if (!nc.footprints.empty() && nc.delivery_prob > 0.0) env.push_back(std::move(nc));
  }
  return env;
}

std::vector<PhotoId> DeviceAgent::select_storage(std::span<const PhotoMeta> pool,
                                                 double own_delivery_prob,
                                                 double now) const {
  const auto env = environment(self_, self_, now);
  SelectionEnvironment senv(task_->model(), env);
  GreedyPhase phase(senv,
                    std::max(own_delivery_prob, selector_.params().p_floor));
  return selector_.select(task_->model(), pool, storage_bytes_, phase);
}

ContactDecision DeviceAgent::plan_contact(std::span<const PhotoMeta> own_photos,
                                          double own_delivery_prob, const PeerView& peer,
                                          double now) const {
  // Union pool, deduplicated by id, own photos first.
  std::vector<PhotoMeta> pool(own_photos.begin(), own_photos.end());
  std::unordered_set<PhotoId> own_ids;
  for (const PhotoMeta& p : pool) own_ids.insert(p.id);
  for (const PhotoMeta& p : peer.photos)
    if (!own_ids.contains(p.id)) pool.push_back(p);

  const auto env = environment(self_, peer.id, now);
  SelectionEnvironment senv(task_->model(), env);
  const ReallocationPlan plan = selector_.reallocate(
      task_->model(), pool, self_, own_delivery_prob, storage_bytes_, peer.id,
      peer.delivery_prob, peer.storage_bytes, senv);

  ContactDecision d;
  d.keep_in_order = self_ == plan.first ? plan.first_target : plan.second_target;
  for (const PhotoId id : d.keep_in_order)
    if (!own_ids.contains(id)) d.fetch_from_peer.push_back(id);
  return d;
}

}  // namespace photodtn

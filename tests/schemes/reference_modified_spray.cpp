#include "schemes/reference_modified_spray.h"

#include <algorithm>

#include "obs/obs.h"
#include "schemes/common.h"

namespace photodtn::test {

namespace {

/// Store snapshot ordered by standalone coverage, highest first.
std::vector<std::pair<CoverageValue, PhotoMeta>> by_value_desc(
    const CoverageModel& model, const PhotoStore& store) {
  std::vector<std::pair<CoverageValue, PhotoMeta>> out;
  for (const PhotoMeta& p : sorted_photos(store))
    out.push_back({standalone_value(model, p), p});
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& x, const auto& y) { return y.first < x.first; });
  return out;
}

}  // namespace

SprayCounter& ReferenceModifiedSpray::counter(NodeId node) {
  auto it = counters_.find(node);
  if (it == counters_.end()) it = counters_.emplace(node, SprayCounter{copies_}).first;
  return it->second;
}

bool ReferenceModifiedSpray::make_room(SimContext& ctx, NodeId node, std::uint64_t bytes,
                                       const CoverageValue& incoming_value) {
  Node& n = ctx.node(node);
  if (n.store().can_fit(bytes)) return true;
  auto ranked = by_value_desc(ctx.model(), n.store());
  // Walk from the weakest photo upward.
  for (auto it = ranked.rbegin(); it != ranked.rend(); ++it) {
    if (n.store().can_fit(bytes)) break;
    if (!(it->first < incoming_value)) return false;  // nothing weaker left
    ctx.drop_photo(node, it->second.id);
    counter(node).on_drop(it->second.id);
  }
  return n.store().can_fit(bytes);
}

void ReferenceModifiedSpray::on_photo_taken(SimContext& ctx, NodeId node,
                                            const PhotoMeta& photo) {
  if (ctx.store_photo(node, photo)) {
    counter(node).on_create(photo.id);
    return;
  }
  const CoverageValue v = standalone_value(ctx.model(), photo);
  if (v.is_zero()) return;
  if (make_room(ctx, node, photo.size_bytes, v) && ctx.store_photo(node, photo))
    counter(node).on_create(photo.id);
}

void ReferenceModifiedSpray::deliver_by_value(SimContext& ctx, ContactSession& session,
                                              NodeId src) {
  for (const auto& [value, p] : by_value_desc(ctx.model(), ctx.node(src).store())) {
    if (ctx.node(kCommandCenter).store().contains(p.id)) {
      ctx.drop_photo(src, p.id);
      counter(src).on_drop(p.id);
      continue;
    }
    if (!session.transfer(p.id, src, kCommandCenter, /*keep_source=*/false)) break;
    counter(src).on_drop(p.id);
  }
}

void ReferenceModifiedSpray::spray_direction(SimContext& ctx, ContactSession& session,
                                             NodeId src, NodeId dst) {
  SprayCounter& src_counter = counter(src);
  obs::Obs* o = ctx.obs();
  obs::EventLog* log = o != nullptr ? o->log() : nullptr;
  for (const auto& [value, p] : by_value_desc(ctx.model(), ctx.node(src).store())) {
    if (!src_counter.can_spray(p.id)) continue;
    if (ctx.node(dst).store().contains(p.id)) continue;
    if (!session.can_transfer(p.size_bytes)) break;
    if (!make_room(ctx, dst, p.size_bytes, value)) continue;
    if (!session.transfer(p.id, src, dst, /*keep_source=*/true)) break;
    const std::uint32_t granted = src_counter.spray(p.id);
    counter(dst).on_receive(p.id, granted);
    if (log != nullptr) {
      log->record({.kind = obs::Event::Kind::kSprayDecrement,
                   .ts_s = ctx.now(),
                   .photo = p.id,
                   .node = src,
                   .peer = dst,
                   .value = static_cast<double>(granted),
                   .aux = static_cast<double>(src_counter.copies(p.id))});
    }
  }
}

void ReferenceModifiedSpray::on_contact(SimContext& ctx, ContactSession& session) {
  if (session.involves_command_center()) {
    deliver_by_value(ctx, session, session.peer(kCommandCenter));
    return;
  }
  spray_direction(ctx, session, session.a(), session.b());
  spray_direction(ctx, session, session.b(), session.a());
}

void ReferenceModifiedSpray::on_node_down(SimContext& /*ctx*/, NodeId node,
                                          bool storage_wiped) {
  // Like SprayCounter::on_drop for every photo the wipe destroyed: a copy
  // received again later starts from its new grant, not from a stale count.
  if (storage_wiped) counters_.erase(node);
}

void ReferenceModifiedSpray::save_persist_state(persist::StateWriter& w) const {
  save_spray_counters(w, counters_);
}

void ReferenceModifiedSpray::load_persist_state(persist::StateReader& r,
                                                SimContext& /*ctx*/) {
  load_spray_counters(r, counters_, copies_);
}

}  // namespace photodtn::test

#include "schemes/modified_spray.h"

#include <algorithm>

#include "obs/obs.h"
#include "schemes/common.h"
#include "util/check.h"

namespace photodtn {

SprayCounter& ModifiedSprayScheme::counter(NodeId node) {
  auto it = counters_.find(node);
  if (it == counters_.end()) it = counters_.emplace(node, SprayCounter{copies_}).first;
  return it->second;
}

void ModifiedSprayScheme::init(SimContext& /*ctx*/) { values_.clear(); }

const CoverageValue& ModifiedSprayScheme::value_of(const CoverageModel& model,
                                                   const PhotoMeta& photo) {
  auto it = values_.find(photo.id);
  if (it == values_.end())
    it = values_.emplace(photo.id, standalone_value(model, photo)).first;
  return it->second;
}

std::vector<ModifiedSprayScheme::Ranked> ModifiedSprayScheme::by_value_desc(
    const CoverageModel& model, const PhotoStore& store) {
  std::vector<Ranked> out;
  out.reserve(store.size());
  for (const PhotoMeta* p : store.ordered())
    out.push_back({value_of(model, *p), p->id, p->size_bytes});
  std::stable_sort(out.begin(), out.end(),
                   [](const Ranked& x, const Ranked& y) { return y.value < x.value; });
  return out;
}

bool ModifiedSprayScheme::make_room(SimContext& ctx, NodeId node, std::uint64_t bytes,
                                    const CoverageValue& incoming_value) {
  const PhotoStore& store = ctx.node(node).store();
  while (!store.can_fit(bytes)) {
    // The weakest photo, the last of by_value_desc(): the lowest value and,
    // among equal values, the latest in (taken_at, id) order — hence <=.
    const PhotoMeta* victim = nullptr;
    CoverageValue victim_value;
    for (const PhotoMeta* p : store.ordered()) {
      const CoverageValue& v = value_of(ctx.model(), *p);
      if (victim == nullptr || v <= victim_value) {
        victim = p;
        victim_value = v;
      }
    }
    if (victim == nullptr || !(victim_value < incoming_value)) return false;
    const PhotoId id = victim->id;
    const bool dropped = ctx.drop_photo(node, id);
    PHOTODTN_CHECK_MSG(dropped, "ModifiedSpray could not evict from a bounded store");
    counter(node).on_drop(id);
  }
  return true;
}

void ModifiedSprayScheme::on_photo_taken(SimContext& ctx, NodeId node,
                                         const PhotoMeta& photo) {
  if (ctx.store_photo(node, photo)) {
    counter(node).on_create(photo.id);
    return;
  }
  const CoverageValue v = value_of(ctx.model(), photo);
  if (v.is_zero()) return;
  if (make_room(ctx, node, photo.size_bytes, v) && ctx.store_photo(node, photo))
    counter(node).on_create(photo.id);
}

void ModifiedSprayScheme::deliver_by_value(SimContext& ctx, ContactSession& session,
                                           NodeId src) {
  for (const Ranked& r : by_value_desc(ctx.model(), ctx.node(src).store())) {
    if (ctx.node(kCommandCenter).store().contains(r.id)) {
      ctx.drop_photo(src, r.id);
      counter(src).on_drop(r.id);
      continue;
    }
    if (!session.transfer(r.id, src, kCommandCenter, /*keep_source=*/false)) break;
    counter(src).on_drop(r.id);
  }
}

void ModifiedSprayScheme::spray_direction(SimContext& ctx, ContactSession& session,
                                          NodeId src, NodeId dst) {
  SprayCounter& src_counter = counter(src);
  obs::EventLog* log = ctx.obs()->log();
  for (const Ranked& r : by_value_desc(ctx.model(), ctx.node(src).store())) {
    if (!src_counter.can_spray(r.id)) continue;
    if (ctx.node(dst).store().contains(r.id)) continue;
    if (!session.can_transfer(r.size_bytes)) break;
    if (!make_room(ctx, dst, r.size_bytes, r.value)) continue;
    if (!session.transfer(r.id, src, dst, /*keep_source=*/true)) break;
    const std::uint32_t granted = src_counter.spray(r.id);
    counter(dst).on_receive(r.id, granted);
    if (log != nullptr) {
      log->record({.kind = obs::Event::Kind::kSprayDecrement,
                   .ts_s = ctx.now(),
                   .photo = r.id,
                   .node = src,
                   .peer = dst,
                   .value = static_cast<double>(granted),
                   .aux = static_cast<double>(src_counter.copies(r.id))});
    }
  }
}

void ModifiedSprayScheme::on_contact(SimContext& ctx, ContactSession& session) {
  if (session.involves_command_center()) {
    deliver_by_value(ctx, session, session.peer(kCommandCenter));
    return;
  }
  spray_direction(ctx, session, session.a(), session.b());
  spray_direction(ctx, session, session.b(), session.a());
}

void ModifiedSprayScheme::on_node_down(SimContext& /*ctx*/, NodeId node,
                                       bool storage_wiped) {
  // Like SprayCounter::on_drop for every photo the wipe destroyed: a copy
  // received again later starts from its new grant, not from a stale count.
  if (storage_wiped) counters_.erase(node);
}

void ModifiedSprayScheme::save_persist_state(persist::StateWriter& w) const {
  save_spray_counters(w, counters_);
}

void ModifiedSprayScheme::load_persist_state(persist::StateReader& r,
                                             SimContext& /*ctx*/) {
  load_spray_counters(r, counters_, copies_);
}

}  // namespace photodtn

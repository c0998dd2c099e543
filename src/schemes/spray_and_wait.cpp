#include "schemes/spray_and_wait.h"

#include "obs/obs.h"
#include "schemes/common.h"

namespace photodtn {

SprayCounter& SprayAndWaitScheme::counter(NodeId node) {
  auto it = counters_.find(node);
  if (it == counters_.end()) it = counters_.emplace(node, SprayCounter{copies_}).first;
  return it->second;
}

void SprayAndWaitScheme::on_photo_taken(SimContext& ctx, NodeId node,
                                        const PhotoMeta& photo) {
  // Drop-tail buffer: a full node discards the new photo (the protocol has
  // no notion of photo value to justify anything smarter).
  if (ctx.store_photo(node, photo)) counter(node).on_create(photo.id);
}

void SprayAndWaitScheme::deliver_all(SimContext& ctx, ContactSession& session,
                                     NodeId src) {
  // Direct transmission to the destination is allowed in any phase; custody
  // ends on delivery, so the local copy is released.
  for (const PhotoMeta& p : sorted_photos(ctx.node(src).store())) {
    if (ctx.node(kCommandCenter).store().contains(p.id)) {
      // Already delivered by another replica: release ours.
      ctx.drop_photo(src, p.id);
      counter(src).on_drop(p.id);
      continue;
    }
    if (!session.transfer(p.id, src, kCommandCenter, /*keep_source=*/false)) break;
    counter(src).on_drop(p.id);
  }
}

void SprayAndWaitScheme::spray_direction(SimContext& ctx, ContactSession& session,
                                         NodeId src, NodeId dst) {
  SprayCounter& src_counter = counter(src);
  SprayCounter& dst_counter = counter(dst);
  obs::EventLog* log = ctx.obs()->log();
  // Only the receiver's store changes (the sender keeps its copy), so the
  // sender's live order is walked.
  const PhotoStore& to = ctx.node(dst).store();
  for (const PhotoMeta* p : ctx.node(src).store().ordered()) {
    const PhotoId id = p->id;
    if (!src_counter.can_spray(id)) continue;
    if (to.contains(id)) continue;
    if (!session.can_transfer(p->size_bytes)) break;
    if (!to.can_fit(p->size_bytes)) break;  // receiver full
    if (!session.transfer(id, src, dst, /*keep_source=*/true)) break;
    const std::uint32_t granted = src_counter.spray(id);
    dst_counter.on_receive(id, granted);
    if (log != nullptr) {
      log->record({.kind = obs::Event::Kind::kSprayDecrement,
                   .ts_s = ctx.now(),
                   .photo = id,
                   .node = src,
                   .peer = dst,
                   .value = static_cast<double>(granted),
                   .aux = static_cast<double>(src_counter.copies(id))});
    }
  }
}

void SprayAndWaitScheme::on_contact(SimContext& ctx, ContactSession& session) {
  if (session.involves_command_center()) {
    deliver_all(ctx, session, session.peer(kCommandCenter));
    return;
  }
  spray_direction(ctx, session, session.a(), session.b());
  spray_direction(ctx, session, session.b(), session.a());
}

void SprayAndWaitScheme::on_node_down(SimContext& /*ctx*/, NodeId node,
                                      bool storage_wiped) {
  // Like SprayCounter::on_drop for every photo the wipe destroyed: a copy
  // received again later starts from its new grant, not from a stale count.
  if (storage_wiped) counters_.erase(node);
}

void SprayAndWaitScheme::save_persist_state(persist::StateWriter& w) const {
  save_spray_counters(w, counters_);
}

void SprayAndWaitScheme::load_persist_state(persist::StateReader& r,
                                            SimContext& /*ctx*/) {
  load_spray_counters(r, counters_, copies_);
}

}  // namespace photodtn

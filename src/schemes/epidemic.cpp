#include "schemes/epidemic.h"

#include "schemes/common.h"

namespace photodtn {

void EpidemicScheme::on_photo_taken(SimContext& ctx, NodeId node,
                                    const PhotoMeta& photo) {
  // Drop-tail: epidemic routing has no value model to justify eviction.
  ctx.store_photo(node, photo);
}

void EpidemicScheme::flood(SimContext& ctx, ContactSession& session, NodeId src,
                           NodeId dst) {
  const PhotoStore& to = ctx.node(dst).store();
  if (dst == kCommandCenter) {
    // Delivery drops photos and hands custody off, so it walks a copy.
    for (const PhotoMeta& p : sorted_photos(ctx.node(src).store())) {
      if (to.contains(p.id)) {
        ctx.drop_photo(src, p.id);  // immunity: already delivered
        continue;
      }
      if (!session.can_transfer(p.size_bytes)) break;
      if (!session.transfer(p.id, src, dst, /*keep_source=*/false)) break;
    }
    return;
  }
  // A relay keeps its copy: only the receiver's store changes, so the
  // sender's live order is walked.
  for (const PhotoMeta* p : ctx.node(src).store().ordered()) {
    if (to.contains(p->id)) continue;
    if (!session.can_transfer(p->size_bytes)) break;
    if (!to.can_fit(p->size_bytes)) break;
    if (!session.transfer(p->id, src, dst, /*keep_source=*/true)) break;
  }
}

void EpidemicScheme::on_contact(SimContext& ctx, ContactSession& session) {
  flood(ctx, session, session.a(), session.b());
  flood(ctx, session, session.b(), session.a());
}

}  // namespace photodtn

#include "schemes/prophet_routing.h"

#include "schemes/common.h"

namespace photodtn {

void ProphetRoutingScheme::on_photo_taken(SimContext& ctx, NodeId node,
                                          const PhotoMeta& photo) {
  ctx.store_photo(node, photo);
}

void ProphetRoutingScheme::forward(SimContext& ctx, ContactSession& session, NodeId src,
                                   NodeId dst) {
  const double now = ctx.now();
  if (dst == kCommandCenter) {
    for (const PhotoMeta& p : sorted_photos(ctx.node(src).store())) {
      if (ctx.node(kCommandCenter).store().contains(p.id)) {
        ctx.drop_photo(src, p.id);
        continue;
      }
      if (!session.transfer(p.id, src, kCommandCenter, /*keep_source=*/false)) break;
    }
    return;
  }
  // GRTR: replicate to the peer only if it is a strictly better custodian.
  const double p_src = ctx.node(src).delivery_prob(now);
  const double p_dst = ctx.node(dst).delivery_prob(now);
  if (p_dst < p_src + min_advantage_ || p_dst == 0.0) return;
  // Only the receiver's store changes, so the sender's live order is walked.
  const PhotoStore& to = ctx.node(dst).store();
  for (const PhotoMeta* p : ctx.node(src).store().ordered()) {
    if (to.contains(p->id)) continue;
    if (!session.can_transfer(p->size_bytes)) break;
    if (!to.can_fit(p->size_bytes)) break;
    if (!session.transfer(p->id, src, dst, /*keep_source=*/true)) break;
  }
}

void ProphetRoutingScheme::on_contact(SimContext& ctx, ContactSession& session) {
  forward(ctx, session, session.a(), session.b());
  forward(ctx, session, session.b(), session.a());
}

}  // namespace photodtn

#include "schemes/best_possible.h"

namespace photodtn {

void BestPossibleScheme::on_photo_taken(SimContext& ctx, NodeId node,
                                        const PhotoMeta& photo) {
  // Irrelevant photos can never contribute coverage; keeping them out makes
  // the epidemic replication tractable without changing the bound.
  if (!ctx.model().footprint_cached(photo).relevant()) return;
  ctx.store_photo(node, photo);
}

void BestPossibleScheme::replicate(SimContext& ctx, ContactSession& session, NodeId src,
                                   NodeId dst) {
  // Only the receiver's store changes, so the sender's live order is walked.
  const PhotoStore& to = ctx.node(dst).store();
  for (const PhotoMeta* p : ctx.node(src).store().ordered()) {
    if (to.contains(p->id)) continue;
    session.transfer(p->id, src, dst, /*keep_source=*/true);
  }
}

void BestPossibleScheme::on_contact(SimContext& ctx, ContactSession& session) {
  replicate(ctx, session, session.a(), session.b());
  replicate(ctx, session, session.b(), session.a());
}

}  // namespace photodtn

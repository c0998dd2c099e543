#include "schemes/reference_photonet.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "schemes/common.h"
#include "util/rng.h"

namespace photodtn::test {

std::array<double, 6> ReferencePhotoNet::features(const PhotoMeta& photo) const {
  // Synthetic color histogram: three uniform components seeded by photo id.
  std::uint64_t s = photo.id * 0x9e3779b97f4a7c15ULL + 1;
  const auto c1 = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  const auto c2 = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  const auto c3 = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  return {photo.location.x / cfg_.location_scale_m,
          photo.location.y / cfg_.location_scale_m,
          photo.taken_at / cfg_.time_scale_s,
          cfg_.color_weight * c1,
          cfg_.color_weight * c2,
          cfg_.color_weight * c3};
}

double ReferencePhotoNet::distance(const PhotoMeta& a, const PhotoMeta& b) const {
  const auto fa = features(a);
  const auto fb = features(b);
  double d2 = 0.0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const double d = fa[i] - fb[i];
    d2 += d * d;
  }
  return std::sqrt(d2);
}

double ReferencePhotoNet::min_distance_to(SimContext& ctx, const PhotoMeta& photo,
                                       NodeId node) const {
  double best = std::numeric_limits<double>::infinity();
  for (const PhotoMeta* p : ctx.node(node).store().ordered()) {
    if (p->id == photo.id) continue;
    best = std::min(best, distance(photo, *p));
  }
  return best;
}

bool ReferencePhotoNet::evict_least_diverse(SimContext& ctx, NodeId node,
                                         std::uint64_t bytes) {
  Node& n = ctx.node(node);
  while (!n.store().can_fit(bytes)) {
    PhotoId victim = 0;
    bool found = false;
    double worst = std::numeric_limits<double>::infinity();
    for (const PhotoMeta& p : sorted_photos(n.store())) {
      const double d = min_distance_to(ctx, p, node);
      if (!found || d < worst) {
        worst = d;
        victim = p.id;
        found = true;
      }
    }
    if (!found) return false;
    ctx.drop_photo(node, victim);
  }
  return true;
}

void ReferencePhotoNet::on_photo_taken(SimContext& ctx, NodeId node,
                                    const PhotoMeta& photo) {
  if (ctx.store_photo(node, photo)) return;
  if (evict_least_diverse(ctx, node, photo.size_bytes)) ctx.store_photo(node, photo);
}

void ReferencePhotoNet::send_diverse(SimContext& ctx, ContactSession& session, NodeId src,
                                  NodeId dst) {
  // Repeatedly send the photo that is farthest from the receiver's current
  // collection (remote-first max-min diversity).
  for (;;) {
    const PhotoMeta* best = nullptr;
    double best_d = -1.0;
    std::vector<PhotoMeta> candidates = sorted_photos(ctx.node(src).store());
    for (const PhotoMeta& p : candidates) {
      if (ctx.node(dst).store().contains(p.id)) continue;
      const double d = min_distance_to(ctx, p, dst);
      if (d > best_d) {
        best_d = d;
        best = &p;
      }
    }
    if (best == nullptr) return;
    if (!session.can_transfer(best->size_bytes)) return;
    if (dst != kCommandCenter &&
        !ctx.node(dst).store().can_fit(best->size_bytes) &&
        !evict_least_diverse(ctx, dst, best->size_bytes))
      return;
    if (!session.transfer(best->id, src, dst, /*keep_source=*/true)) return;
  }
}

void ReferencePhotoNet::on_contact(SimContext& ctx, ContactSession& session) {
  if (session.involves_command_center()) {
    send_diverse(ctx, session, session.peer(kCommandCenter), kCommandCenter);
    return;
  }
  send_diverse(ctx, session, session.a(), session.b());
  send_diverse(ctx, session, session.b(), session.a());
}

}  // namespace photodtn::test

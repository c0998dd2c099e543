// Test-only oracle: PhotoNet exactly as it was before send_diverse and
// evict_least_diverse became incremental (schemes/photonet.cpp). Every
// transfer rescans |src| x |dst| distances and every eviction rescans the
// store pairwise, recomputing features per pair. It is slow and obviously
// right; tests/schemes/photonet_equivalence_test.cpp runs it against the
// production scheme and requires identical event streams.
#pragma once

#include <array>

#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "schemes/photonet.h"

namespace photodtn::test {

class ReferencePhotoNet : public Scheme {
 public:
  explicit ReferencePhotoNet(PhotoNetConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "PhotoNet"; }

  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override;
  void on_contact(SimContext& ctx, ContactSession& session) override;

  /// Feature vector (x, y, t, c1, c2, c3) after scaling; exposed for tests.
  std::array<double, 6> features(const PhotoMeta& photo) const;

 private:
  double distance(const PhotoMeta& a, const PhotoMeta& b) const;
  /// Min distance from `photo` to any photo in `store` (infinity if empty).
  double min_distance_to(SimContext& ctx, const PhotoMeta& photo, NodeId node) const;
  void send_diverse(SimContext& ctx, ContactSession& session, NodeId src, NodeId dst);
  /// Drops the least-diverse photo (smallest nearest-neighbor distance).
  bool evict_least_diverse(SimContext& ctx, NodeId node, std::uint64_t bytes);

  PhotoNetConfig cfg_;
};

}  // namespace photodtn::test

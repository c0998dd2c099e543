// PhotoNet-style diversity routing (Uddin et al., the prototype-demo
// baseline of Section IV-B). Photos are prioritized to maximize the
// *diversity* of the receiver's collection in a feature space of capture
// location, time stamp, and color histogram. Pixel data is not simulated,
// so the color histogram is replaced by a synthetic 3-vector derived
// deterministically from the photo id (documented in DESIGN.md); location
// and time come from real metadata. Diversity is the classic max-min
// (remote-first) criterion: transmit the photo farthest from the receiver's
// current set; evict the photo closest to its nearest neighbor. Each call
// computes every photo's features once and keeps those distances as exact
// running minimums, so the choices equal a full rescan's. The sender keeps
// what it sends, so a full receiver's set soon cycles; once it repeats
// within a call, the logged steps are replayed instead of rescanned
// (docs/ALGORITHMS.md §8). The scheme has no state between calls, hence no
// checkpoint state.
#pragma once

#include <array>

#include "dtn/scheme.h"
#include "dtn/simulator.h"

namespace photodtn {

struct PhotoNetConfig {
  /// Feature-space scales: meters and seconds that count as "one unit" of
  /// difference, so location, time, and color contribute comparably.
  double location_scale_m = 500.0;
  double time_scale_s = 3600.0;
  double color_weight = 1.0;
};

class PhotoNetScheme : public Scheme {
 public:
  explicit PhotoNetScheme(PhotoNetConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "PhotoNet"; }

  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override;
  void on_contact(SimContext& ctx, ContactSession& session) override;

  /// Feature vector (x, y, t, c1, c2, c3) after scaling; exposed for tests.
  std::array<double, 6> features(const PhotoMeta& photo) const;

 private:
  /// Sends photos from `src` to `dst`, farthest from `dst`'s set first,
  /// evicting `dst`'s least-diverse photos for room, until the contact's
  /// budget or the candidates run out. Scans until `dst`'s set repeats, then
  /// replays the steps since its last visit in a cycle.
  void send_diverse(SimContext& ctx, ContactSession& session, NodeId src, NodeId dst);

  PhotoNetConfig cfg_;
};

}  // namespace photodtn

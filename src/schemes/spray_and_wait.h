// Binary Spray-and-Wait (Spyropoulos et al.), the content-agnostic DTN
// routing baseline of Sections IV-B and V-B. Photos are plain packets:
// L = 4 logical copies each, sprayed by halves, delivered directly to the
// command center in the wait phase. No coverage knowledge anywhere.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "routing/spray_counter.h"

namespace photodtn {

class SprayAndWaitScheme : public Scheme {
 public:
  explicit SprayAndWaitScheme(std::uint32_t copies = 4) : copies_(copies) {}

  std::string name() const override { return "Spray&Wait"; }

  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override;
  void on_contact(SimContext& ctx, ContactSession& session) override;
  /// A wipe loses the node's buffer, and with it its copy counts.
  void on_node_down(SimContext& ctx, NodeId node, bool storage_wiped) override;

  /// Checkpoint/restore of the per-node spray counters.
  void save_persist_state(persist::StateWriter& w) const override;
  void load_persist_state(persist::StateReader& r, SimContext& ctx) override;

 private:
  SprayCounter& counter(NodeId node);
  /// One direction of a participant contact: spray from `src` to `dst`.
  void spray_direction(SimContext& ctx, ContactSession& session, NodeId src, NodeId dst);
  /// Direct delivery of everything to the command center.
  void deliver_all(SimContext& ctx, ContactSession& session, NodeId src);

  std::uint32_t copies_;
  std::unordered_map<NodeId, SprayCounter> counters_;
};

}  // namespace photodtn

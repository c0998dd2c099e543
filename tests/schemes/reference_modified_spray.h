// Test-only oracle: ModifiedSpray exactly as it was before the scheme
// memoized standalone values and picked eviction victims by a scan
// (schemes/modified_spray.cpp). It re-ranks a store by recomputed
// standalone coverage on every delivery, spray and eviction, and walks each
// ranking from the weakest photo up. It is slow and obviously right;
// tests/schemes/modified_spray_equivalence_test.cpp runs it against the
// production scheme and requires identical event streams.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "routing/spray_counter.h"

namespace photodtn::test {

class ReferenceModifiedSpray : public Scheme {
 public:
  explicit ReferenceModifiedSpray(std::uint32_t copies = 4) : copies_(copies) {}

  std::string name() const override { return "ModifiedSpray"; }

  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override;
  void on_contact(SimContext& ctx, ContactSession& session) override;
  /// A wipe loses the node's buffer, and with it its copy counts.
  void on_node_down(SimContext& ctx, NodeId node, bool storage_wiped) override;

  /// Checkpoint/restore of the per-node spray counters.
  void save_persist_state(persist::StateWriter& w) const override;
  void load_persist_state(persist::StateReader& r, SimContext& ctx) override;

 private:
  SprayCounter& counter(NodeId node);
  void spray_direction(SimContext& ctx, ContactSession& session, NodeId src, NodeId dst);
  void deliver_by_value(SimContext& ctx, ContactSession& session, NodeId src);
  /// Evicts lowest-value photos from `node` until `bytes` fit, but only
  /// while the victims are worth less than `incoming_value`. Returns true
  /// if the bytes now fit.
  bool make_room(SimContext& ctx, NodeId node, std::uint64_t bytes,
                 const CoverageValue& incoming_value);

  std::uint32_t copies_;
  std::unordered_map<NodeId, SprayCounter> counters_;
};

}  // namespace photodtn::test

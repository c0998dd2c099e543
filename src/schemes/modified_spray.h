// ModifiedSpray (Section V-B): Spray-and-Wait made coverage-aware, standing
// in for prior utility-driven routing. Two changes from plain Spray&Wait:
//   * transmissions are ordered by *individual* photo coverage, highest
//     first;
//   * a full receiver evicts its lowest-coverage photo to admit a
//     higher-coverage incoming one.
// Crucially, it ranks by each photo's standalone coverage — it never looks
// at overlap between photos, which is exactly the limitation the paper's
// scheme fixes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "routing/spray_counter.h"

namespace photodtn {

class ModifiedSprayScheme : public Scheme {
 public:
  explicit ModifiedSprayScheme(std::uint32_t copies = 4) : copies_(copies) {}

  std::string name() const override { return "ModifiedSpray"; }

  void init(SimContext& ctx) override;
  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override;
  void on_contact(SimContext& ctx, ContactSession& session) override;
  /// A wipe loses the node's buffer, and with it its copy counts.
  void on_node_down(SimContext& ctx, NodeId node, bool storage_wiped) override;

  /// Checkpoint/restore of the per-node spray counters.
  void save_persist_state(persist::StateWriter& w) const override;
  void load_persist_state(persist::StateReader& r, SimContext& ctx) override;

 private:
  /// A stored photo as the ranking sees it.
  struct Ranked {
    CoverageValue value;
    PhotoId id = 0;
    std::uint64_t size_bytes = 0;
  };

  SprayCounter& counter(NodeId node);
  /// standalone_value(model, photo), memoized by photo id for the run.
  const CoverageValue& value_of(const CoverageModel& model, const PhotoMeta& photo);
  /// The store ranked by standalone coverage, highest first; equal values
  /// keep the store's (taken_at, id) order.
  std::vector<Ranked> by_value_desc(const CoverageModel& model, const PhotoStore& store);
  void spray_direction(SimContext& ctx, ContactSession& session, NodeId src, NodeId dst);
  void deliver_by_value(SimContext& ctx, ContactSession& session, NodeId src);
  /// Evicts lowest-value photos from `node` until `bytes` fit, but only
  /// while the victims are worth less than `incoming_value`. Returns true
  /// if the bytes now fit.
  bool make_room(SimContext& ctx, NodeId node, std::uint64_t bytes,
                 const CoverageValue& incoming_value);

  std::uint32_t copies_;
  std::unordered_map<NodeId, SprayCounter> counters_;
  /// Derived from the model alone, so neither checkpointed nor restored.
  std::unordered_map<PhotoId, CoverageValue> values_;
};

}  // namespace photodtn

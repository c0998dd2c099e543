// The strategy interface every photo-dissemination scheme implements.
// The simulator drives the trace and byte/storage accounting; schemes decide
// *which* photos move or get dropped at each opportunity.
#pragma once

#include <string>

#include "coverage/photo.h"
#include "persist/fwd.h"

namespace photodtn {

class Simulator;
class ContactSession;

/// The run a scheme acts on. Schemes use only its scheme-facing accessors:
/// now, model, node, num_nodes, config, rng, store_photo, drop_photo, obs.
/// The lint rule scheme-run-control rejects a call of its run-control
/// members from src/schemes/.
using SimContext = Simulator;

class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string name() const = 0;

  /// Called once before the event loop (after nodes are constructed).
  virtual void init(SimContext& /*ctx*/) {}

  /// A participant just took a photo. The photo is NOT stored automatically:
  /// the scheme decides whether to keep it and what to evict. Default
  /// implementations in subclasses typically store if space allows.
  virtual void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) = 0;

  /// A contact opportunity. `session` enforces the byte budget and storage
  /// constraints; the scheme issues transfers/drops through it.
  virtual void on_contact(SimContext& ctx, ContactSession& session) = 0;

  /// Fault-layer churn (dtn/fault.h): `node` crashed and will miss every
  /// contact until on_node_up. `storage_wiped` reports whether its photo
  /// buffer and routing soft state were lost. Churn is observable out of
  /// band (a liveness beacon on the control channel), so schemes may react
  /// immediately — e.g. invalidating cached metadata — but must never move
  /// payload here. Default: ignore; every scheme must survive arbitrary
  /// churn without crashing or double-counting either way.
  virtual void on_node_down(SimContext& /*ctx*/, NodeId /*node*/,
                            bool /*storage_wiped*/) {}
  /// `node` rebooted and attends contacts again (empty-handed if wiped).
  virtual void on_node_up(SimContext& /*ctx*/, NodeId /*node*/) {}

  /// BestPossible sets these: the experiment runner lifts storage and
  /// bandwidth constraints for schemes that request it (Section V-B).
  virtual bool wants_unlimited_storage() const { return false; }
  virtual bool wants_unlimited_bandwidth() const { return false; }

  /// Checkpoint/restore hooks (src/persist/): a stateful scheme serializes
  /// its private mid-run state (caches, counters, engines) into the
  /// snapshot's scheme section and reloads it after init(). Containers must
  /// be written in a deterministic order (sorted by key); load may assume
  /// the section passed its CRC but must still validate semantic invariants
  /// (restore runs audits afterward). Stateless schemes keep the empty
  /// defaults and snapshot/restore cleanly with a zero-byte section.
  virtual void save_persist_state(persist::StateWriter& /*w*/) const {}
  virtual void load_persist_state(persist::StateReader& /*r*/, SimContext& /*ctx*/) {}
};

}  // namespace photodtn

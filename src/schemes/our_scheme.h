// The paper's resource-aware photo selection scheme (Section III), and — via
// a configuration switch — the NoMetadata ablation of Section V-B.
//
// On every contact the two nodes:
//   1. exchange metadata snapshots of their own collections (plus gossip of
//      cached third-party metadata) and prune entries invalidated by eq. (1);
//   2. assemble the node set M: themselves, the command center's cached
//      acknowledgment snapshot, and every other validly cached node;
//   3. run the two-phase greedy reallocation of the union pool F_a ∪ F_b
//      (higher delivery probability selects first);
//   4. transmit photos in selection order until the plan is realized or the
//      contact's byte budget runs out; evictions make room on demand, and —
//      when the plan completed untruncated — pool photos left outside a
//      node's target are dropped (the collections become the solution).
//
// Contacts with the command center follow the same algorithm with p_0 = 1
// and the center's collection treated as a fixed environment (it never drops
// photos, so it never "reselects" its own storage).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "obs/obs.h"
#include "selection/greedy_selector.h"
#include "selection/metadata_cache.h"
#include "selection/selection_env.h"

namespace photodtn {

struct OurSchemeConfig {
  /// Metadata validity threshold P_thld (Table I: 0.8).
  double p_thld = 0.8;
  /// Disable metadata caching/management entirely -> the NoMetadata baseline:
  /// M degenerates to the two contact parties (plus the center when it is a
  /// party itself).
  bool metadata_enabled = true;
  GreedyParams greedy;
};

class OurScheme : public Scheme {
 public:
  explicit OurScheme(OurSchemeConfig cfg = {});

  static std::unique_ptr<OurScheme> no_metadata();

  std::string name() const override {
    return cfg_.metadata_enabled ? "OurScheme" : "NoMetadata";
  }

  /// Registers the scheme's metric handles on the run's registry when the
  /// context carries one with metrics enabled; otherwise instrumentation
  /// stays a null-pointer test per contact.
  void init(SimContext& ctx) override;

  void on_photo_taken(SimContext& ctx, NodeId node, const PhotoMeta& photo) override;
  void on_contact(SimContext& ctx, ContactSession& session) override;
  /// Churn: every cache drops the downed node's entry immediately (the
  /// liveness beacon beats eq. (1)'s timer — §III-B's invalidation exists
  /// precisely to hedge against nodes that never show up again); a wiped
  /// node additionally loses its own cache and persistent engine.
  void on_node_down(SimContext& ctx, NodeId node, bool storage_wiped) override;

  /// Checkpoint/restore of the scheme's run state: selector counters,
  /// per-node metadata caches, and the persistent selection engines with
  /// their revision bookkeeping (dtn/scheme.h for the contract).
  void save_persist_state(persist::StateWriter& w) const override;
  void load_persist_state(persist::StateReader& r, SimContext& ctx) override;

  /// Test access.
  const MetadataCache& cache_of(NodeId node) const;

 private:
  MetadataCache& cache(NodeId node);
  /// `b_to_a` / `a_to_b`: whether each gossip direction survived the fault
  /// layer (both true on a clean contact).
  void exchange_metadata(SimContext& ctx, NodeId a, NodeId b, double now,
                         bool b_to_a, bool a_to_b);
  /// Snapshot entry describing `node`'s current state.
  MetadataEntry snapshot(SimContext& ctx, NodeId node, double now) const;
  /// Reconciles `viewer`'s persistent selection engine with its metadata
  /// cache: collections whose cached entry disappeared or was restamped are
  /// removed/reloaded (by their snapshot's shared arc digest), untouched ones
  /// keep their cached per-PoI factors. Returns the engine holding every
  /// validly cached collection except the contact parties.
  SelectionEnvironment& sync_engine(SimContext& ctx, NodeId viewer,
                                    NodeId exclude_a, NodeId exclude_b, double now);
  void contact_with_center(SimContext& ctx, ContactSession& session);
  void contact_between_participants(SimContext& ctx, ContactSession& session);

  /// Realizes one node's target list: transfers missing photos from the
  /// peer in selection order, evicting non-target photos on demand. Returns
  /// false if the byte budget truncated the plan. `target_ids` and
  /// `peer_ids` are the two targets sorted by id; `pool_by_id` is the
  /// contact's pool sorted by id.
  bool realize_target(SimContext& ctx, ContactSession& session, NodeId holder,
                      const std::vector<PhotoId>& target,
                      const std::vector<PhotoId>& target_ids,
                      const std::vector<PhotoId>& peer_ids,
                      std::span<const PhotoMeta* const> pool_by_id);

  /// One persistent incremental engine per node, kept in sync with the
  /// node's metadata cache via revision stamps (schemes live for exactly one
  /// simulation run, so the engine's model reference stays valid). Between
  /// contacts only the collections that actually changed are reloaded —
  /// unchanged PoI factors survive untouched.
  struct EngineState {
    explicit EngineState(const CoverageModel& model) : env(model) {}
    SelectionEnvironment env;
    /// (owner, cache revision) of every loaded collection, sorted by owner.
    std::vector<std::pair<NodeId, std::uint64_t>> loaded_revs;
    std::uint64_t last_rebuilds = 0;  // env.rebuild_count() at last reading
  };

  /// Metric handles, registered by init() when metrics are on (obs is the
  /// on/off switch: nullptr = disabled, one branch per site).
  struct ObsHooks {
    obs::Obs* obs = nullptr;
    obs::MetricsRegistry::Counter gossip_records, gossip_accepted,
        cache_invalidations, cache_updates, engine_syncs, engine_loads,
        engine_unloads, poi_rebuilds, gain_evals, reevals, commits;
    obs::MetricsRegistry::Histogram pool_size, gossip_per_contact;
  };

  /// Accounts rebuilds the viewer's engine performed since the last reading
  /// (sync reconciliation + the selection queries it served).
  void record_engine_rebuilds(NodeId viewer);
  /// Accounts selector work since the last reading (diff of totals()).
  void record_selection_delta();
  /// Records one kSelectCommit event attributed to `node` (peer = the
  /// contact counterpart). Requires log_.
  void record_select_commit(double now, NodeId node, NodeId peer, const SelectCommit& c);
  /// Drains the selector's commit log into kSelectCommit events. The log
  /// is empty unless init() saw the provenance tier on.
  void emit_select_commits(double now, NodeId node, NodeId peer);

  OurSchemeConfig cfg_;
  GreedySelector selector_;
  std::unordered_map<NodeId, MetadataCache> caches_;
  std::unordered_map<NodeId, EngineState> engines_;
  // sync_engine's buffers, reused across contacts: the viewer's valid
  // entries and the reconciled revision list it swaps in.
  std::vector<const MetadataEntry*> valid_scratch_;
  std::vector<std::pair<NodeId, std::uint64_t>> revs_scratch_;
  ObsHooks hooks_;
  /// The run's event log, set by init(); nullptr while the trace and
  /// provenance tiers are both off.
  obs::EventLog* log_ = nullptr;
  SelectionStats last_totals_;
};

}  // namespace photodtn

// Metadata management (Section III-B). Every node caches snapshots of other
// nodes' photo metadata, learned directly during contacts and gossiped
// transitively. A cached snapshot of node `a` observed at time t0 is valid
// at time `now` while
//     P{T_a < now - t0} = 1 - exp(-lambda_a * (now - t0)) <= P_thld,
// i.e. while it is unlikely that `a` has met anyone (and hence reshuffled
// its photos) since the snapshot. The command center's snapshot never
// expires — the center never drops photos, so its metadata acts as a
// monotone acknowledgment set.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coverage/coverage_model.h"
#include "coverage/photo.h"
#include "persist/fwd.h"
#include "selection/poi_cover.h"

namespace photodtn {

/// One observation of a node's photo collection (the metadata record of
/// Section III-B). Built once, then shared read-only — through
/// std::shared_ptr<const MetadataSnapshot> — by every cache that accepts it
/// and every selection engine that loads it, so gossip copies a pointer and
/// an engine load copies no arcs.
struct MetadataSnapshot {
  /// Builds the arc digest of `photos` from `model`'s footprints.
  MetadataSnapshot(std::vector<PhotoMeta> photos, const CoverageModel& model);

  /// The collection's photo metadata.
  std::vector<PhotoMeta> photos;
  /// The arcs the photos put on each PoI, unioned in photo order.
  ArcDigest digest;
};

struct MetadataEntry {
  NodeId owner = -1;
  /// The owner's photo collection as observed. Never null in a cache.
  std::shared_ptr<const MetadataSnapshot> snapshot;
  /// When the owner was last *directly* observed (by whoever produced the
  /// snapshot). Gossip forwards this original timestamp unchanged.
  double observed_at = 0.0;
  /// The owner's aggregate inter-contact rate lambda_a, as reported by the
  /// owner at observation time.
  double lambda = 0.0;
  /// The owner's delivery probability p_a at observation time (used when
  /// building the expected-coverage node set from cached entries).
  double delivery_prob = 0.0;
  /// Cache-local revision stamp, assigned when the caching MetadataCache
  /// accepts the entry (monotone per cache, never reused). A persistent
  /// selection engine compares stamps to detect that its loaded copy of this
  /// owner's collection went stale, without diffing photo lists. Not carried
  /// by gossip — each cache restamps on acceptance.
  std::uint64_t revision = 0;
};

class MetadataCache {
 public:
  /// `p_thld`: validity threshold from Table I (0.8).
  explicit MetadataCache(double p_thld = 0.8) : p_thld_(p_thld) {}

  double p_thld() const noexcept { return p_thld_; }

  /// Inserts/replaces the entry for `entry.owner` if it is fresher than the
  /// currently cached one. Returns true if the cache changed.
  bool update(MetadataEntry entry);

  /// Probability that the owner has met another node within `elapsed`
  /// seconds, per eq. (1).
  static double staleness_probability(double lambda, double elapsed);

  /// Validity per eq. (1); the command center is always valid.
  bool is_valid(const MetadataEntry& entry, double now) const;

  /// Removes all invalid entries (the paper removes entries once they cross
  /// the threshold). Returns how many were removed (cache invalidations —
  /// feeds the scheme.cache_invalidations metric).
  std::size_t prune(double now);

  /// All entries currently valid at `now`, sorted by owner (does not prune).
  std::vector<const MetadataEntry*> valid_entries(double now) const;
  /// Same, into `out` (cleared first), so a caller can reuse its buffer.
  void valid_entries(double now, std::vector<const MetadataEntry*>& out) const;

  const MetadataEntry* find(NodeId owner) const;
  void erase(NodeId owner) { entries_.erase(owner); }

  /// Drops every entry but keeps the revision counter monotone: entries
  /// accepted after the clear always carry stamps no pre-clear consumer ever
  /// saw, so a persistent selection engine can never mistake post-crash
  /// gossip for the state it loaded before the crash. (Used on churn: a
  /// crashed node's own cache dies with its flash.)
  void clear();

  /// Gossip: absorbs every entry of `other` that is fresher than ours.
  /// `self` is excluded — a node is the authority on its own collection.
  /// Returns how many entries were accepted (fresher than the cached copy).
  std::size_t merge_from(const MetadataCache& other, NodeId self);

  std::size_t size() const noexcept { return entries_.size(); }
  const std::unordered_map<NodeId, MetadataEntry>& entries() const noexcept {
    return entries_;
  }

  /// Deep invariant check (audit builds / tests): every entry is keyed by its
  /// own owner id and holds a snapshot, owners are valid (>= 0),
  /// inter-contact rates satisfy lambda >= 0 and are finite, delivery
  /// probabilities lie in [0, 1], observation timestamps are finite and
  /// non-negative (update() only ever replaces an entry with a fresher one,
  /// so observed_at is monotone per owner), revision stamps are unique and within the issued range, and the
  /// validity threshold is a probability. Throws std::logic_error on
  /// violation.
  void audit() const;

 private:
  friend struct persist::StateAccess;  // checkpoint/restore of entries + revision clock

  /// Checks the entry, then whether the cached copy of its owner is at
  /// least as fresh (so `entry` would be rejected).
  bool is_stale(const MetadataEntry& entry) const;

  double p_thld_;
  std::uint64_t next_revision_ = 0;  // last revision issued; 0 = none yet
  std::unordered_map<NodeId, MetadataEntry> entries_;
};

}  // namespace photodtn

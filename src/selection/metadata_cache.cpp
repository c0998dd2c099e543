#include "selection/metadata_cache.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/check.h"
#include "util/prob.h"

namespace photodtn {

MetadataSnapshot::MetadataSnapshot(std::vector<PhotoMeta> photos_in,
                                   const CoverageModel& model)
    : photos(std::move(photos_in)) {
  std::vector<const PhotoFootprint*> footprints;
  model.footprints_cached(photos, footprints);
  digest = ArcDigest(footprints);
}

bool MetadataCache::is_stale(const MetadataEntry& entry) const {
  PHOTODTN_CHECK_MSG(entry.owner >= 0, "metadata entry needs an owner");
  PHOTODTN_CHECK_MSG(entry.snapshot != nullptr, "metadata entry needs a snapshot");
  PHOTODTN_DCHECK_MSG(entry.lambda >= 0.0 && std::isfinite(entry.lambda),
                      "metadata entry lambda must be finite and non-negative");
  PHOTODTN_DCHECK_MSG(is_probability(entry.delivery_prob),
                      "metadata entry delivery probability must be in [0, 1]");
  const auto it = entries_.find(entry.owner);
  return it != entries_.end() && it->second.observed_at >= entry.observed_at;
}

bool MetadataCache::update(MetadataEntry entry) {
  if (is_stale(entry)) return false;
  entry.revision = ++next_revision_;
  entries_[entry.owner] = std::move(entry);
  PHOTODTN_AUDIT(audit());
  return true;
}

double MetadataCache::staleness_probability(double lambda, double elapsed) {
  if (elapsed <= 0.0 || lambda <= 0.0) return 0.0;
  return 1.0 - std::exp(-lambda * elapsed);
}

bool MetadataCache::is_valid(const MetadataEntry& entry, double now) const {
  if (entry.owner == kCommandCenter) return true;
  return staleness_probability(entry.lambda, now - entry.observed_at) <= p_thld_;
}

std::size_t MetadataCache::prune(double now) {
  std::size_t removed = 0;
  // photodtn-lint: allow(unordered-iter): per-entry keep/erase, no cross-entry state
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!is_valid(it->second, now)) {
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  PHOTODTN_AUDIT(audit());
  return removed;
}

std::vector<const MetadataEntry*> MetadataCache::valid_entries(double now) const {
  std::vector<const MetadataEntry*> out;
  valid_entries(now, out);
  return out;
}

void MetadataCache::valid_entries(double now,
                                  std::vector<const MetadataEntry*>& out) const {
  out.clear();
  out.reserve(entries_.size());
  // photodtn-lint: allow(unordered-iter): extract-and-sort — owner-sorted below
  for (const auto& [owner, entry] : entries_)
    if (is_valid(entry, now)) out.push_back(&entry);
  // Owner order: consumers fold these into selection environments, where
  // float-product update order must not depend on hash layout.
  std::sort(out.begin(), out.end(),
            [](const MetadataEntry* a, const MetadataEntry* b) {
              return a->owner < b->owner;
            });
}

void MetadataCache::clear() {
  entries_.clear();  // next_revision_ deliberately survives (see header)
}

const MetadataEntry* MetadataCache::find(NodeId owner) const {
  const auto it = entries_.find(owner);
  return it == entries_.end() ? nullptr : &it->second;
}

std::size_t MetadataCache::merge_from(const MetadataCache& other, NodeId self) {
  std::size_t accepted = 0;
  // photodtn-lint: allow(unordered-iter): per-owner acceptance is independent; revision stamps are compared only for equality, never ordered
  for (const auto& [owner, entry] : other.entries_) {
    // Freshness first: most offered entries are stale. An accepted one costs
    // a pointer copy — the snapshot itself is shared, never copied.
    if (owner == self || is_stale(entry)) continue;
    MetadataEntry& slot = entries_[owner];
    slot = entry;
    slot.revision = ++next_revision_;
    ++accepted;
  }
  PHOTODTN_AUDIT(audit());
  return accepted;
}

void MetadataCache::audit() const {
  PHOTODTN_CHECK_MSG(is_probability(p_thld_),
                     "MetadataCache validity threshold must be in [0, 1]");
  // photodtn-lint: allow(unordered-iter): per-entry audit checks, no accumulation
  for (const auto& [owner, entry] : entries_) {
    PHOTODTN_CHECK_MSG(owner == entry.owner,
                       "MetadataCache entry keyed by a different owner");
    PHOTODTN_CHECK_MSG(entry.owner >= 0, "MetadataCache entry owner must be valid");
    PHOTODTN_CHECK_MSG(entry.snapshot != nullptr, "MetadataCache entry needs a snapshot");
    PHOTODTN_CHECK_MSG(std::isfinite(entry.lambda) && entry.lambda >= 0.0,
                       "MetadataCache entry lambda must be finite and >= 0");
    PHOTODTN_CHECK_MSG(is_probability(entry.delivery_prob),
                       "MetadataCache entry delivery probability must be in [0, 1]");
    PHOTODTN_CHECK_MSG(std::isfinite(entry.observed_at) && entry.observed_at >= 0.0,
                       "MetadataCache entry observation time must be finite and >= 0");
    PHOTODTN_CHECK_MSG(entry.revision >= 1 && entry.revision <= next_revision_,
                       "MetadataCache entry revision outside the issued range");
  }
  // Revisions are never reused: each accepted entry gets a fresh stamp.
  // Pairwise over at most one entry per node, so the check allocates
  // nothing and runs inside allocation-free paths such as merge_from.
  // photodtn-lint: allow(unordered-iter): uniqueness check holds in any visit order
  for (auto a = entries_.begin(); a != entries_.end(); ++a)
    for (auto b = std::next(a); b != entries_.end(); ++b)
      PHOTODTN_CHECK_MSG(a->second.revision != b->second.revision,
                         "MetadataCache revision stamps must be unique");
}

}  // namespace photodtn

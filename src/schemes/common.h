// Helpers shared by the dissemination schemes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coverage/coverage_model.h"
#include "coverage/coverage_value.h"
#include "dtn/photo_store.h"
#include "persist/fwd.h"
#include "routing/spray_counter.h"

namespace photodtn {

/// Copy of store.ordered(): the photos in (taken_at, id) order. For loops
/// that mutate the store they walk (custody hand-offs, drops) or that need
/// values which outlive it; a loop that writes only another node's store
/// walks store.ordered() directly.
std::vector<PhotoMeta> sorted_photos(const PhotoStore& store);

/// Standalone photo coverage of a single photo, ignoring every other photo:
/// (sum of covered PoI weights, sum of weighted arc lengths). This is the
/// per-photo utility ModifiedSpray ranks by, and the eviction heuristic our
/// scheme uses when a photo is taken while the buffer is full.
CoverageValue standalone_value(const CoverageModel& model, const PhotoMeta& photo);

/// Union pool F_a ∪ F_b, deduplicated by photo id, deterministic order.
std::vector<PhotoMeta> union_pool(const PhotoStore& a, const PhotoStore& b);

/// Checkpoint serialization of a spray scheme's per-node counters (sorted
/// by node id), shared by Spray&Wait and ModifiedSpray.
void save_spray_counters(
    persist::StateWriter& w,
    const std::unordered_map<NodeId, SprayCounter>& counters);
/// Restores the counters; fails (SnapshotError) on duplicate nodes or a
/// counter whose configured L disagrees with `expected_copies` — that means
/// the snapshot came from a differently parameterized scheme.
void load_spray_counters(persist::StateReader& r,
                         std::unordered_map<NodeId, SprayCounter>& counters,
                         std::uint32_t expected_copies);

}  // namespace photodtn

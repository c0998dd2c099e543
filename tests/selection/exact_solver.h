// Exhaustive reference solvers for the photo selection problems of
// Section III-D. The reallocation problem is NP-hard (0-1 knapsack reduces
// to it) and non-convex, which is why the production path is greedy; these
// test-only solvers enumerate tiny instances exactly so the tests can
// measure how far greedy lands from the true optimum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coverage/coverage_model.h"
#include "selection/expected_coverage.h"

namespace photodtn {

/// Exhaustive single-node selection: max C_ex over all subsets of `pool`
/// that fit `capacity_bytes`, against the fixed environment. O(2^k);
/// requires pool.size() <= 20.
struct ExactSelection {
  std::vector<PhotoId> chosen;
  CoverageValue value;
};

ExactSelection exact_select(const CoverageModel& model, std::span<const PhotoMeta> pool,
                            NodeId node, double delivery_prob,
                            std::uint64_t capacity_bytes,
                            std::span<const NodeCollection> environment);

/// Exhaustive two-node reallocation: max C_ex(F_a, F_b) over every
/// assignment of each pool photo to {neither, a, b, both} respecting both
/// capacities. O(4^k); requires pool.size() <= 10.
struct ExactReallocation {
  std::vector<PhotoId> node_a;
  std::vector<PhotoId> node_b;
  CoverageValue value;
};

ExactReallocation exact_reallocate(const CoverageModel& model,
                                   std::span<const PhotoMeta> pool, NodeId node_a,
                                   double p_a, std::uint64_t cap_a, NodeId node_b,
                                   double p_b, std::uint64_t cap_b,
                                   std::span<const NodeCollection> environment);

/// Value of a concrete two-node allocation under Definition 2 (used to
/// score greedy's plan with the same yardstick as the exact solver).
CoverageValue allocation_value(const CoverageModel& model,
                               std::span<const PhotoMeta> pool,
                               std::span<const PhotoId> at_a, double p_a,
                               std::span<const PhotoId> at_b, double p_b,
                               NodeId node_a, NodeId node_b,
                               std::span<const NodeCollection> environment);

}  // namespace photodtn

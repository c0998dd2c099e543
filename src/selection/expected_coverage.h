// Expected coverage C_ex (Definition 2): the delivery-probability-weighted
// photo coverage of a node set M. Three evaluators:
//
//  * expected_coverage_exact — polynomial-time exact value. Definition 2
//    sums over 2^m delivery outcomes, but coverage decomposes per PoI and
//    expectation is linear, so per PoI:
//      E[point]  = w * (1 - prod_i (1 - p_i))        over nodes covering it
//      E[aspect] = w * integral over the aspect circle of
//                  (1 - prod_{i: v in A_i} (1 - p_i)) dv   (Fubini),
//    computed exactly by splitting the circle at all arc endpoints.
//  * expected_coverage_enumerate — the literal 2^m sum (m <= 20), used as
//    the test oracle.
//  * expected_coverage_monte_carlo — sampling estimator, for validating the
//    other two and for profiling.
//
// The selection engine assembles the same value from its cached per-PoI
// factors (SelectionEnvironment::total, selection_env.h); the differential
// tests pin it to expected_coverage_exact.
//
// Nodes appearing multiple times (same id) are treated as independent
// sources — callers should deduplicate.
#pragma once

#include <span>
#include <vector>

#include "coverage/coverage_model.h"
#include "coverage/coverage_value.h"
#include "util/rng.h"

namespace photodtn {

/// A node's photo collection (as footprints) plus its delivery probability
/// toward the command center. Footprint pointers must outlive the call.
struct NodeCollection {
  NodeId node = -1;
  double delivery_prob = 0.0;
  std::vector<const PhotoFootprint*> footprints;
};

CoverageValue expected_coverage_exact(const CoverageModel& model,
                                      std::span<const NodeCollection> nodes);

/// Literal Definition 2; requires nodes.size() <= 20.
CoverageValue expected_coverage_enumerate(const CoverageModel& model,
                                          std::span<const NodeCollection> nodes);

CoverageValue expected_coverage_monte_carlo(const CoverageModel& model,
                                            std::span<const NodeCollection> nodes,
                                            Rng& rng, std::size_t samples);

}  // namespace photodtn

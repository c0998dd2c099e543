// The photo reallocation algorithm of Section III-D. On a contact between
// n_a and n_b, the union pool F_a ∪ F_b is redistributed to maximize
// C_ex(F_a, F_b) under both storage budgets. The problem is NP-hard
// (knapsack reduces to it) and non-convex (coverage overlap), so — exactly
// as the paper does — the node with the higher delivery probability greedily
// fills its storage first against the fixed environment (other nodes' valid
// metadata + the command center), then the other node selects against the
// environment *plus* the first node's tentative selection.
//
// Greedy acceleration: the marginal gains are monotone non-increasing in
// the selected set (coverage is submodular for a fixed environment), so we
// use CELF lazy evaluation (Minoux): a max-heap of cached stale upper
// bounds, re-evaluated only when a candidate tops the heap with an outdated
// stamp. The heap is filled by calling GreedyPhase::gain once per candidate,
// in pool order. The selection is bit-identical to plain greedy's, which
// re-evaluates every candidate each round; the tests keep plain greedy as
// an oracle (tests/selection/reference_selection.h).
//
// Determinism: candidates whose gains tie exactly are taken in PhotoId
// order (lowest id first). Pool order, the plain-greedy oracle and the
// incremental-engine path therefore all produce the same selection — ties
// are common in practice (identical burst photos, symmetric scenes), and
// index-based tie-breaking would let two evaluation paths diverge on them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coverage/coverage_model.h"
#include "persist/fwd.h"
#include "selection/expected_coverage.h"
#include "selection/selection_env.h"

namespace photodtn {

struct GreedyParams {
  /// Delivery probabilities are floored to this value inside gain
  /// computations. A common positive factor never reorders candidates, but a
  /// literal p = 0 (a node that has never met the command center) would
  /// zero every gain and stall selection before any contact history exists.
  double p_floor = 0.02;
  /// Gains at or below this (lexicographically, on both components) stop
  /// the selection: "no more benefit can be achieved". The boundary is
  /// *exclusive* — a candidate whose gain equals eps exactly is never
  /// taken, so a pool whose gains all sit at the boundary terminates
  /// immediately instead of stalling on tie-churn.
  double eps = 1e-9;
};

/// Evaluation counters of the most recent select() call, for benches and
/// the selection.* metrics (the CELF re-evaluation rate is reevals /
/// gain_evals).
struct SelectionStats {
  std::uint64_t gain_evals = 0;  // all gain evaluations, heap fill included
  std::uint64_t reevals = 0;     // CELF stale re-evaluations (subset)
  std::uint64_t commits = 0;     // photos selected
};

/// One committed selection decision: the photo and its marginal gain *at
/// commit time* (the CELF-fresh value, identical to plain greedy's).
/// Consumed by the provenance layer for kSelectCommit events.
struct SelectCommit {
  PhotoId id = 0;
  CoverageValue gain;
};

/// Outcome of the two-phase reallocation. Photo ids are listed in the order
/// they were selected — the transmission order under short contacts.
struct ReallocationPlan {
  NodeId first = -1;   // the higher-delivery-probability node; selects first
  NodeId second = -1;
  std::vector<PhotoId> first_target;
  std::vector<PhotoId> second_target;
};

class GreedySelector {
 public:
  explicit GreedySelector(GreedyParams params = {}) : params_(params) {}

  /// Single-node greedy selection: choose from `pool` (each photo counted
  /// once; ids must be unique) at most `capacity_bytes` worth of photos
  /// maximizing expected coverage against `phase`'s environment. `phase` is
  /// advanced by the commits; the chosen ids are returned in order.
  std::vector<PhotoId> select(const CoverageModel& model,
                              std::span<const PhotoMeta> pool,
                              std::uint64_t capacity_bytes, GreedyPhase& phase) const;

  /// Two-phase reallocation for a contact against an incremental
  /// environment engine. `env` holds every other collection of the node set
  /// M (cached valid metadata + command center) and must not contain n_a or
  /// n_b. Phase 2 temporarily adds the first node's tentative selection to
  /// the engine (touching only the PoIs it covers) and removes it before
  /// returning, so a persistent engine can be reused across contacts.
  ReallocationPlan reallocate(const CoverageModel& model,
                              std::span<const PhotoMeta> pool, NodeId node_a,
                              double p_a, std::uint64_t cap_a, NodeId node_b,
                              double p_b, std::uint64_t cap_b,
                              SelectionEnvironment& env) const;

  const GreedyParams& params() const noexcept { return params_; }

  /// Counters of the most recent select() on this selector (reallocate
  /// leaves the second phase's). Like the engine caches: thread-compatible,
  /// not thread-safe — each simulation run owns its selector.
  const SelectionStats& last_stats() const noexcept { return stats_; }

  /// Lifetime accumulation across every select() on this selector (both
  /// phases of each reallocate). Consumers tracking per-contact work (the
  /// selection.* metrics) diff successive readings instead of racing to
  /// copy last_stats() before the next phase resets it.
  const SelectionStats& totals() const noexcept { return totals_; }

  /// Turns the per-commit log on (off by default — the push_back per commit
  /// is only paid when provenance wants marginal gains). The log accumulates
  /// across select()/reallocate() calls until drained.
  void enable_commit_log(bool on) noexcept { log_commits_ = on; }

  /// Buffers for the phases that select through this selector: reallocate
  /// runs its two phases in them, and a caller building its own phase can
  /// pass them too, so commits reuse the capacity earlier phases grew.
  /// Scratch like the counters: one phase at a time.
  GreedyPhase::Buffers& phase_buffers() const noexcept { return phase_buffers_; }

  /// Drains the accumulated commit log in commit order. The log is transient
  /// scheme-contact state: callers drain it within the same on_contact that
  /// filled it, before any checkpoint surface, so it is never persisted.
  std::vector<SelectCommit> take_commit_log() const {
    std::vector<SelectCommit> out = std::move(commit_log_);
    commit_log_.clear();
    return out;
  }

 private:
  // Restore must set both counter sets: consumers diff totals() against a
  // saved copy, and a zeroed side would make that diff wrap.
  friend struct persist::StateAccess;

  /// A CELF heap entry: a candidate's cached gain and the commit count it
  /// was computed at.
  struct Cand {
    CoverageValue gain;
    PhotoId id;
    std::size_t idx;
    std::uint64_t stamp;
  };

  GreedyParams params_;
  // select()'s working buffers: the pool's footprints and the CELF heap.
  // Scratch like the counters — reused by every select(), so a warmed
  // selector's phases allocate only their result.
  mutable std::vector<const PhotoFootprint*> fps_;
  mutable std::vector<Cand> heap_;
  mutable SelectionStats stats_;
  mutable SelectionStats totals_;
  mutable std::vector<SelectCommit> commit_log_;
  mutable GreedyPhase::Buffers phase_buffers_;
  bool log_commits_ = false;
};

}  // namespace photodtn

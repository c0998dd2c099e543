// SelectionEnvironment + GreedyPhase: the incremental machinery behind the
// greedy photo selection of Section III-D.
//
// When node n selects photos, every *other* collection in the node set M is
// fixed. The expected coverage C_ex factors per PoI (Definition 2 +
// linearity of expectation), so the environment's effect on each PoI is
// captured by:
//   * a point "miss factor"  prod_{i != n covering PoI} (1 - p_i), and
//   * a piecewise-constant aspect "miss function"
//       env(v) = prod_{i != n: v in A_i} (1 - p_i)
// on the aspect circle. Adding one of n's photos then changes the expected
// coverage by exactly
//   dPoint  = w * miss * p_n                  (first covering photo only)
//   dAspect = w * p_n * integral over (arc minus n's already-selected arcs)
//             of env(v) * weight(v) dv,
// so each greedy step is a cheap local computation instead of a full C_ex
// re-evaluation, touching only the PoIs the candidate photo point-covers.
//
// The environment is *incremental*: collections can be added, extended and
// removed (metadata cached, expired, or photos committed at a contact), and
// only the PoIs the changed collection covers are marked dirty; their
// cached per-PoI state is rebuilt lazily on the next query, in place over
// the PoI's own arrays, so a warmed environment rebuilds without touching
// the heap. A loaded collection is its arc digest (poi_cover.h), held by
// shared pointer: a metadata snapshot's digest is built once and every
// engine that loads the snapshot reads the same intervals, so a PoI's cover
// entries are views, and loading or unloading a collection copies no arcs.
// PiecewiseMiss carries prefix-sum integrals (with the PoI's aspect-weight
// profile baked into the segments), making one marginal-gain integral
// O(log B) in the number of environment breakpoints instead of O(B).
//
// GreedyPhase::gain is the one marginal-gain evaluator: the greedy selector
// calls it once per candidate to fill its CELF heap and again for each stale
// re-evaluation. A simulation run is single-threaded, so a dirty PoI is
// rebuilt on the caller's thread by the first gain that touches it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coverage/coverage_model.h"
#include "coverage/coverage_value.h"
#include "persist/fwd.h"
#include "selection/expected_coverage.h"
#include "selection/poi_cover.h"

namespace photodtn {

/// Piecewise-constant product-of-misses on the aspect circle of one PoI,
/// with prefix-sum integrals of env(v) * weight(v) for O(log B) range
/// integration. When built with a non-uniform AspectProfile, the profile's
/// breakpoints are merged into the segmentation and its weight multiplies
/// the stored integrals (value_at still returns the unweighted env value).
class PiecewiseMiss {
 public:
  /// The buffers a rebuild works in. Their contents are discarded on every
  /// call; only their capacity carries over.
  struct Scratch {
    /// One cover interval opening or closing, as the sweep sees it.
    struct Event {
      double angle;
      double factor;  // 1 - p of the covering node
      bool open;
    };
    std::vector<double> cuts;
    std::vector<Event> events;
  };

  /// Constant 1 (no other node covers this PoI, uniform weight).
  PiecewiseMiss() = default;

  /// Rebuilds the function in place from the covering nodes' arcs and
  /// delivery probabilities, read in cover order. `profile` (optional) bakes
  /// the PoI's aspect weighting into the integrals; a null or uniform profile
  /// means weight 1 everywhere. Every array is overwritten but keeps its capacity, so a
  /// rebuild no larger than earlier ones allocates nothing.
  void rebuild(std::span<const CoverView> covers, const AspectProfile* profile,
               Scratch& scratch);

  /// env value at an angle (unweighted miss product).
  double value_at(double angle) const noexcept;

  /// Integral of env(v) * weight(v) over [lo, hi], 0 <= lo <= hi <= 2*pi.
  /// O(log B) via the prefix sums.
  double integral(double lo, double hi) const noexcept;

  /// integral(lo, hi) minus the parts covered by `exclude`, for
  /// 0 <= lo <= hi <= 2*pi (linear; callers split wrapping arcs).
  /// O((1 + excluded intervals in range) * log B).
  double integrate_excluding(double lo, double hi, const ArcSet& exclude) const;

  /// Integral of env(v) * weight(v) over the whole circle. The environment's
  /// expected *uncovered* aspect mass of the PoI; C_ex factors through it.
  double full_integral() const noexcept;

  /// Number of constant segments (0 for the constant function). A point
  /// query or an integral binary-searches them: O(log segment_count()).
  std::size_t segment_count() const noexcept { return cuts_.size(); }

  /// Deep invariant check (audit builds / tests): cuts sorted, starting at
  /// 0, inside [0, 2*pi); values are probabilities; weights non-negative;
  /// prefix sums consistent with the per-segment rates. Throws
  /// std::logic_error on violation.
  void audit() const;

 private:
  double rate(std::size_t seg) const noexcept { return rates_[seg]; }
  std::size_t segment_of(double a) const noexcept;

  // Linear segmentation of [0, 2*pi): segment k spans
  // [cuts_[k], cuts_[k+1]) with the last ending at 2*pi; cuts_[0] == 0.
  // Empty cuts_ means "constant_ everywhere, uniform weight".
  std::vector<double> cuts_;
  std::vector<double> vals_;     // env miss product per segment
  std::vector<double> weights_;  // profile weight per segment; empty = 1
  std::vector<double> rates_;    // fused vals * weights (weight 1 if none)
  std::vector<double> prefix_;   // prefix_[k] = integral of env*w on [0, cuts_[k]);
                                 // size cuts_.size() + 1, last = full circle
  double constant_ = 1.0;        // value when cuts_ is empty
};

class SelectionEnvironment {
 public:
  /// Empty environment (no other collections yet); grow with
  /// add_collection.
  explicit SelectionEnvironment(const CoverageModel& model);

  /// `others`: every collection in M except the node that will select.
  /// Equivalent to adding each collection in order.
  SelectionEnvironment(const CoverageModel& model,
                       std::span<const NodeCollection> others);

  /// Adds a collection by its arc digest (node ids must be unique). The
  /// engine shares the digest — it keeps the pointer while the collection
  /// is loaded and never modifies it — so other holders (the metadata
  /// snapshot it came from, other engines) may keep reading it. Marks
  /// exactly the PoIs the digest covers dirty.
  void add_collection(NodeId node, double delivery_prob,
                      std::shared_ptr<const ArcDigest> digest);

  /// Adds a collection from its footprints (pointers only need to live for
  /// the duration of the call): the engine builds the digest and owns it.
  void add_collection(const NodeCollection& collection);

  /// Adds photos to an existing collection (or adds the collection when the
  /// node is not loaded). Used when a collection grows in place — e.g. the
  /// command center receiving deliveries mid-contact. The grown collection
  /// gets a new digest of the engine's own; one it shared is left as it
  /// was. Only PoIs whose covered arcs actually change are marked dirty.
  void extend_collection(NodeId node, double delivery_prob,
                         std::span<const PhotoFootprint* const> extra);

  /// Removes a collection; returns false when the node was not loaded.
  /// Marks only the PoIs the collection covered dirty.
  bool remove_collection(NodeId node);

  bool has_collection(NodeId node) const noexcept { return find_loaded(node) != nullptr; }
  std::size_t collection_count() const noexcept { return loaded_.size(); }

  /// Lifetime count of lazy per-PoI rebuilds (refresh() calls): how much
  /// cached state the dirty-marking actually recomputed. Deterministic —
  /// rebuilds happen on first query of a dirty PoI. Feeds the
  /// scheme.poi_rebuilds metric.
  std::uint64_t rebuild_count() const noexcept { return rebuilds_; }

  const CoverageModel& model() const noexcept { return *model_; }

  /// Per-PoI cached terms; dirty PoIs are rebuilt on access (lazily, so a
  /// burst of invalidations followed by queries touching few PoIs only pays
  /// for those). Thread-compatible, not thread-safe — like CoverageModel's
  /// footprint cache, each simulation run owns its environment.
  double point_miss(std::size_t poi) const;
  const PiecewiseMiss& aspect_miss(std::size_t poi) const;

  /// C_ex of the loaded collections (Definition 2), assembled from the
  /// per-PoI factors: point = sum w * (1 - miss), aspect = sum
  /// w * (W_profile - full_integral). Equals expected_coverage_exact on the
  /// same collections.
  CoverageValue total() const;

  /// Deep invariant check (audit builds / tests): per-PoI cover lists
  /// consistent with the loaded-collection registry (each entry a view of
  /// its collection's digest), point-miss products and piecewise miss
  /// functions match a from-scratch recomputation, arcs canonical. Throws
  /// std::logic_error on violation.
  void audit() const;

 private:
  // Checkpoint/restore serializes the per-PoI cover lists *in list order*:
  // refresh() folds miss products in that order, so preserving it keeps the
  // rebuilt FP state bit-identical to the uninterrupted run's.
  friend struct persist::StateAccess;

  struct Loaded {
    NodeId node = -1;
    double delivery_prob = 0.0;
    std::shared_ptr<const ArcDigest> digest;  // its PoIs are the ones touched
  };

  /// Where `node` is or would be inserted in the sorted registry.
  std::vector<Loaded>::const_iterator slot_of(NodeId node) const noexcept;
  const Loaded* find_loaded(NodeId node) const noexcept;
  void refresh(std::size_t poi) const;

  const CoverageModel* model_;
  // Rebuild scratch shared by every PoI. A run is single-threaded, so one
  // set of buffers per environment serves all of them and, once it has
  // grown to the largest PoI, rebuilds stop allocating.
  mutable PiecewiseMiss::Scratch rebuild_scratch_;
  // Per-PoI state as parallel arrays (structure-of-arrays): the hot queries
  // — point_miss reads and the dirty checks of every gain — then read dense
  // double/char arrays instead of striding over a struct that drags each
  // PoI's cover list and miss function through cache with it.
  // dirty_ starts all-1: the initial rebuild must bake in the PoI profile.
  std::vector<std::vector<CoverView>> covers_;
  mutable std::vector<double> pt_miss_;
  mutable std::vector<PiecewiseMiss> miss_;
  mutable std::vector<char> dirty_;
  mutable std::uint64_t rebuilds_ = 0;
  // The loaded collections, sorted by node id. Slots are reused: unloading
  // and reloading a collection into a warmed engine allocates nothing.
  std::vector<Loaded> loaded_;
};

class GreedyPhase {
 public:
  /// What a phase commits into. The buffers outlive the phase, so their
  /// capacity carries over from one phase to the next; a phase resets only
  /// the PoIs it touched, and leaves the buffers clean when it ends. One
  /// phase at a time may use them.
  struct Buffers {
    std::vector<ArcSet> own_arcs;      // per PoI: the tentative selection's arcs
    std::vector<char> own_covered;     // per PoI: the selection point-covers it
    std::vector<std::size_t> touched;  // PoIs with committed arcs
    bool in_use = false;
  };

  /// `delivery_prob` is the selecting node's p, already floored by the
  /// caller if desired (a common positive factor never changes the greedy
  /// order, but a literal 0 would make every gain zero and stall selection).
  GreedyPhase(const SelectionEnvironment& env, double delivery_prob, Buffers& buffers);

  /// A phase with buffers of its own, allocated for it.
  GreedyPhase(const SelectionEnvironment& env, double delivery_prob);

  /// Clears the PoIs the phase committed to, so the buffers are clean.
  ~GreedyPhase();
  GreedyPhase(const GreedyPhase&) = delete;
  GreedyPhase& operator=(const GreedyPhase&) = delete;

  /// Expected-coverage gain of adding this footprint to the tentative
  /// selection (lexicographic CoverageValue).
  CoverageValue gain(const PhotoFootprint& fp) const;

  /// Adds the footprint to the tentative selection.
  void commit(const PhotoFootprint& fp);

  double delivery_prob() const noexcept { return p_; }

  /// The tentative selection's arcs on a PoI (for tests).
  const ArcSet& own_arcs(std::size_t poi) const { return buf_->own_arcs.at(poi); }

  /// Deep invariant check (audit builds / tests): committed arc sets are
  /// canonical, the point-covered flags match arc presence exactly, and
  /// the touched list names exactly the covered PoIs.
  void audit() const;

 private:
  void start();

  const SelectionEnvironment* env_;
  double p_;
  std::unique_ptr<Buffers> owned_;  // set only when the phase owns its buffers
  Buffers* buf_;
};

}  // namespace photodtn

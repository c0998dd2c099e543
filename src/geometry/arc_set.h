// A set of arcs on the unit circle, kept as a canonical union of disjoint
// intervals. This is the data structure behind aspect coverage (Section II-B):
// each photo covering a PoI contributes an arc of width 2*theta centered on
// the PoI->camera heading, and the PoI's aspect coverage is the measure of
// the union of those arcs.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "persist/fwd.h"

namespace photodtn {

/// One covered interval [start, end) of a canonical arc union.
using ArcInterval = std::pair<double, double>;

// Queries over a canonical interval list: ArcSet::intervals(), or a view of
// one stored elsewhere, such as a collection's shared arc digest
// (selection/poi_cover.h). ArcSet answers its own queries through these.

/// Total angular measure covered, in [0, 2*pi].
double arcs_measure(std::span<const ArcInterval> intervals) noexcept;
/// True when the intervals cover the whole circle.
bool arcs_full(std::span<const ArcInterval> intervals) noexcept;
/// Whether the (normalized) angle is covered; boundary points count.
bool arcs_contain(std::span<const ArcInterval> intervals, double angle) noexcept;
/// Appends every interval endpoint to `out`, normalized to [0, 2*pi); the
/// appended run is sorted ascending and deduplicated, and the elements
/// already in `out` are left as they are. Used by the breakpoint sweeps,
/// which collect the boundaries of many sets into one reused buffer.
void append_arc_boundaries(std::span<const ArcInterval> intervals,
                           std::vector<double>& out);
/// The canonical-form check behind ArcSet::audit. Throws std::logic_error
/// on violation.
void audit_arcs(std::span<const ArcInterval> intervals);

/// A single arc, by start heading (radians, any finite value — normalized on
/// use) and length in [0, 2*pi].
struct Arc {
  double start = 0.0;
  double length = 0.0;

  /// Arc of width 2*half_width centered on `center`.
  static Arc centered(double center, double half_width) noexcept;
};

class ArcSet {
 public:
  ArcSet() = default;

  /// Inserts an arc, merging with existing intervals.
  void add(Arc arc);

  /// Union with another set.
  void unite(const ArcSet& other) {
    unite(std::span<const ArcInterval>(other.intervals_));
  }

  /// Union with a canonical interval list (another set's intervals, or a
  /// view of them).
  void unite(std::span<const ArcInterval> other);

  /// Replaces the contents with a canonical interval list, verbatim: the
  /// same bits, where re-adding the intervals as arcs could renormalize them.
  void assign(std::span<const ArcInterval> canonical);

  /// Empties the set, keeping its capacity.
  void clear() noexcept { intervals_.clear(); }

  /// Total angular measure covered, in [0, 2*pi].
  double measure() const noexcept { return arcs_measure(intervals_); }

  /// Whether the (normalized) angle lies in the covered set. Boundary points
  /// count as covered.
  bool contains(double angle) const noexcept { return arcs_contain(intervals_, angle); }

  /// Measure that `arc` would add beyond the current coverage, without
  /// mutating the set. Equivalent to union-measure minus measure.
  double gain(Arc arc) const noexcept;

  /// Measure of the intersection with the linear interval [lo, hi],
  /// where 0 <= lo <= hi <= 2*pi (no wrap; split wrapping queries yourself).
  double overlap_linear(double lo, double hi) const noexcept;

  /// append_arc_boundaries over this set's intervals.
  void append_boundaries(std::vector<double>& out) const {
    append_arc_boundaries(intervals_, out);
  }

  bool empty() const noexcept { return intervals_.empty(); }
  /// True when the whole circle is covered.
  bool full() const noexcept { return arcs_full(intervals_); }

  /// Disjoint covered intervals as [start, end) pairs with
  /// 0 <= start < end <= 2*pi, sorted by start. A set covering the wrap point
  /// appears as two pieces (one ending at 2*pi, one starting at 0).
  const std::vector<ArcInterval>& intervals() const noexcept { return intervals_; }

  bool operator==(const ArcSet&) const = default;

  /// Deep invariant check (audit builds / tests): intervals are sorted by
  /// start, pairwise disjoint, each normalized to 0 <= start < end <= 2*pi,
  /// and the total measure does not exceed the circle. Throws std::logic_error
  /// on violation.
  void audit() const { audit_arcs(intervals_); }

 private:
  // Restore writes the canonical intervals back verbatim (then audits):
  // re-adding them through add() could renormalize with different rounding.
  friend struct persist::StateAccess;

  void insert_linear(double lo, double hi);

  std::vector<ArcInterval> intervals_;
};

}  // namespace photodtn

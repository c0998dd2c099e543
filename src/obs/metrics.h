// Lock-cheap in-sim metrics registry: named counters and fixed-bucket
// histograms behind typed index handles. Registration returns a handle once
// (typically at init/ctor time); the hot-path record calls are a
// bounds-checked array add — no hashing, no locking, no allocation.
//
// Determinism: counters and histograms are integer-valued (std::uint64_t),
// so merging snapshots is commutative and associative bit-for-bit —
// experiment runs merged in seed order produce the same JSON regardless of
// how many pool lanes computed them (PHOTODTN_THREADS=1/4 byte-identity).
//
// A registry belongs to one simulation run (like SelectionEnvironment:
// thread-compatible, not thread-safe). Cross-run aggregation happens on
// immutable MetricsSnapshot values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "persist/fwd.h"
#include "util/check.h"

namespace photodtn {

class JsonWriter;

namespace obs {

/// Distribution summary: counts[i] counts recorded values v with
/// v <= bounds[i] (and > bounds[i-1]); counts.back() is the overflow bucket
/// (v > bounds.back()). A registry records into one per histogram, and its
/// snapshot() copies them. All integer arithmetic, so merge order is
/// invisible.
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;

  /// Adds `other` in. Bounds must match (a name always registers the same
  /// buckets); throws std::logic_error otherwise.
  void merge(const HistogramSnapshot& other);
};

/// Point-in-time copy of a registry (or a merge of several).
struct MetricsSnapshot {
  std::uint64_t runs = 0;  // registries merged in (1 for a fresh snapshot)
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return runs == 0 && counters.empty() && histograms.empty();
  }

  /// Accumulates `other` (same-name entries add; new names insert).
  void merge(const MetricsSnapshot& other);

  /// Emits {"runs":N,"counters":{...},"gauges":{},"histograms":{...}}
  /// with keys in sorted (map) order — deterministic given equal contents.
  /// "gauges" is always empty; the photodtn-metrics/1 schema keeps the key.
  void write_json(JsonWriter& w) const;
};

class MetricsRegistry {
 public:
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  struct Counter {
    std::uint32_t idx = kInvalidIndex;
    bool valid() const noexcept { return idx != kInvalidIndex; }
  };
  struct Histogram {
    std::uint32_t idx = kInvalidIndex;
    bool valid() const noexcept { return idx != kInvalidIndex; }
  };

  /// Find-or-create by name; re-registering a name returns the same handle.
  Counter counter(std::string_view name);
  /// `bounds` must be non-empty and strictly increasing; re-registering a
  /// histogram name must pass identical bounds.
  Histogram histogram(std::string_view name, std::vector<std::uint64_t> bounds);

  /// Geometric bucket boundaries: first, first*factor, ... (n values,
  /// rounded, strictly increasing — equal neighbors are bumped by one).
  static std::vector<std::uint64_t> exp_bounds(std::uint64_t first, double factor,
                                               std::size_t n);

  void add(Counter c, std::uint64_t n = 1) {
    PHOTODTN_DCHECK_MSG(c.idx < counter_values_.size(), "invalid counter handle");
    counter_values_[c.idx] += n;
  }
  std::uint64_t value(Counter c) const {
    PHOTODTN_DCHECK_MSG(c.idx < counter_values_.size(), "invalid counter handle");
    return counter_values_[c.idx];
  }

  void record(Histogram h, std::uint64_t v);

  std::size_t counter_count() const noexcept { return counter_names_.size(); }

  /// Copies the current values out (snapshot.runs == 1).
  MetricsSnapshot snapshot() const;

  /// Deep invariant check (audit builds / tests): name/value arrays aligned,
  /// names unique and non-empty, histogram bounds strictly increasing and
  /// bucket counts consistent with count/sum/min/max. Throws
  /// std::logic_error on violation.
  void audit() const;

 private:
  // Checkpoint/restore writes values (and histogram states) by name via the
  // public find-or-create handles; serialization sorts by name, so handle
  // indices — which depend on registration order — never leak into output.
  friend struct persist::StateAccess;

  std::vector<std::string> counter_names_;
  std::vector<std::uint64_t> counter_values_;
  std::vector<std::string> histogram_names_;
  std::vector<HistogramSnapshot> histograms_;
};

}  // namespace obs
}  // namespace photodtn

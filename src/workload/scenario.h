// ScenarioConfig bundles every Table I parameter so experiments and
// examples share one source of truth.
#pragma once

#include <cstdint>

#include "dtn/simulator.h"
#include "geometry/angle.h"
#include "trace/synthetic_trace.h"

namespace photodtn {

struct ScenarioConfig {
  /// 6300 m x 6300 m region (Section V-A).
  double region_m = 6300.0;
  std::size_t num_pois = 250;
  /// Effective angle theta (Table I: 30 degrees).
  double effective_angle = deg_to_rad(30.0);

  /// Photo workload: 250 photos/h across all participants, 4 MB each.
  double photo_rate_per_hour = 250.0;
  std::uint64_t photo_size_bytes = 4ULL * 1000 * 1000;
  /// Field-of-view uniform in [30°, 60°] (Table I).
  double fov_min = deg_to_rad(30.0);
  double fov_max = deg_to_rad(60.0);
  /// Coverage range r = c * cot(fov/2) with c uniform in [50, 100] m.
  double range_coeff_min_m = 50.0;
  double range_coeff_max_m = 100.0;

  /// Metadata validity threshold P_thld (Table I: 0.8).
  double p_thld = 0.8;
  /// Section II-C binary quality gate: photos below this quality never
  /// count as covering anything (0 admits every photo, the paper's default).
  double quality_threshold = 0.0;

  SyntheticTraceConfig trace;
  SimConfig sim;

  /// Checks the values that size a run before anything is allocated. The
  /// horizon, the photo rate, the sample interval and region_m must be
  /// finite (the rate non-negative, the others positive), and
  /// trace.team_size at least 1. The horizon (<= 30,000 h),
  /// the implied photo count (rate x horizon, <= 1e7), the implied
  /// coverage sample count (horizon / sample interval, <= 1e5),
  /// num_pois (<= 100,000), trace.num_participants (in [2, 10,000]) and
  /// the implied contact count (<= 2.5e7: participant pairs x
  /// trace.base_pair_rate_per_hour x max(1, trace.intra_team_boost) x
  /// hours, plus gateways x horizon / (gateway interval + duration)) are
  /// bounded, each at >= 100x a paper-scale run, so a value such as
  /// --hours 1e12 fails at once instead of letting trace or workload
  /// generation take all memory or time. trace.gateway_fraction must be in
  /// [0, 1], and the gateway interval and contact duration finite,
  /// non-negative and not both 0. `horizon_s` is the run's horizon:
  /// trace.duration_s for a synthetic trace, the file's horizon for a
  /// replayed one. Throws std::invalid_argument naming the offending field.
  void validate(double horizon_s) const;

  /// Presets reproducing the two Table I columns. `seed` controls trace,
  /// workload, and simulator randomness together.
  static ScenarioConfig mit(std::uint64_t seed);
  static ScenarioConfig cambridge(std::uint64_t seed);
};

}  // namespace photodtn

#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "util/to_chars.h"

namespace photodtn {

namespace {

// Bounds on the run a scenario may imply, each at least 100x a paper-scale
// run (Table I: 250 PoIs, 300 h, 75,000 photos, 30 coverage samples; the
// MIT-like trace's 97 participants, counted as below, imply 201,416
// contacts).
constexpr std::size_t kMaxPois = 100'000;
constexpr double kMaxHorizonS = 30'000.0 * 3600.0;
constexpr double kMaxPhotos = 1e7;
constexpr double kMaxSamples = 1e5;
constexpr NodeId kMaxParticipants = 10'000;
constexpr double kMaxContacts = 2.5e7;

std::string num(double v) {
  std::string out;
  append_chars(out, v);
  return out;
}

/// The synthetic trace's generator loops over every participant pair, and
/// over each gateway's visits to the command center, until the horizon.
void check_synthetic_trace(const SyntheticTraceConfig& trace, double horizon_s) {
  if (trace.num_participants < 2 || trace.num_participants > kMaxParticipants)
    throw std::invalid_argument("trace.num_participants = " +
                                std::to_string(trace.num_participants) +
                                " must be in [2, " + std::to_string(kMaxParticipants) +
                                "]");
  // Gateways are drawn from the participants; a fraction above 1 would fill
  // the list with the command center itself.
  if (!(trace.gateway_fraction >= 0.0 && trace.gateway_fraction <= 1.0))
    throw std::invalid_argument("trace.gateway_fraction = " +
                                num(trace.gateway_fraction) + " must be in [0, 1]");
  const double interval = trace.gateway_mean_interval_s;
  const double duration = trace.gateway_contact_duration_s;
  if (!std::isfinite(interval) || interval < 0.0 || !std::isfinite(duration) ||
      duration < 0.0 || interval + duration <= 0.0)
    throw std::invalid_argument(
        "trace.gateway_mean_interval_s = " + num(interval) +
        " and trace.gateway_contact_duration_s = " + num(duration) +
        " must be finite and non-negative, and not both 0 (a gateway's next "
        "contact would never come later)");
  // Every pair at the intra-team rate (an upper bound on the mean), plus
  // one gateway contact per interval and duration.
  const auto n = static_cast<double>(trace.num_participants);
  const double pairs = n * (n - 1.0) / 2.0;
  const double gateways = std::max(1.0, std::round(trace.gateway_fraction * n));
  const double contacts =
      pairs * trace.base_pair_rate_per_hour * std::max(1.0, trace.intra_team_boost) *
          (horizon_s / 3600.0) +
      gateways * horizon_s / (interval + duration);
  if (!(contacts <= kMaxContacts))
    throw std::invalid_argument(
        "the synthetic trace implies " + num(contacts) +
        " contacts over the horizon, over the limit of " + num(kMaxContacts) +
        " (trace.num_participants = " + std::to_string(trace.num_participants) +
        ", trace.base_pair_rate_per_hour = " + num(trace.base_pair_rate_per_hour) +
        ", trace.intra_team_boost = " + num(trace.intra_team_boost) +
        ", trace.gateway_fraction = " + num(trace.gateway_fraction) +
        ", trace.gateway_mean_interval_s = " + num(interval) +
        ", trace.gateway_contact_duration_s = " + num(duration) + ")");
}

ScenarioConfig base(std::uint64_t seed, SyntheticTraceConfig trace_cfg) {
  ScenarioConfig cfg;
  cfg.trace = trace_cfg;
  cfg.trace.seed = seed;
  cfg.sim.seed = seed ^ 0xDA7A5EEDULL;
  cfg.sim.prophet = ProphetConfig{};  // Table I: 0.75 / 0.25 / 0.98
  cfg.sim.node_storage_bytes = 600ULL * 1000 * 1000;
  cfg.sim.bandwidth_bytes_per_s = 2.0e6;
  return cfg;
}

}  // namespace

ScenarioConfig ScenarioConfig::mit(std::uint64_t seed) {
  ScenarioConfig cfg = base(seed, SyntheticTraceConfig::mit_reality(seed));
  cfg.sim.sample_interval_s = 10.0 * 3600.0;  // 30 samples across 300 h
  return cfg;
}

ScenarioConfig ScenarioConfig::cambridge(std::uint64_t seed) {
  ScenarioConfig cfg = base(seed, SyntheticTraceConfig::cambridge06(seed));
  cfg.sim.sample_interval_s = 10.0 * 3600.0;  // 20 samples across 200 h
  return cfg;
}

void ScenarioConfig::validate(double horizon_s) const {
  const std::string horizon =
      "horizon_s (trace.duration_s or the trace file's) = " + num(horizon_s);
  if (!std::isfinite(horizon_s) || horizon_s <= 0.0)
    throw std::invalid_argument(horizon + " must be finite and positive");
  if (horizon_s > kMaxHorizonS)
    throw std::invalid_argument(horizon + " is over the limit of " + num(kMaxHorizonS));
  if (!std::isfinite(photo_rate_per_hour) || photo_rate_per_hour < 0.0)
    throw std::invalid_argument("photo_rate_per_hour = " + num(photo_rate_per_hour) +
                                " must be finite and non-negative");
  if (const double photos = photo_rate_per_hour * (horizon_s / 3600.0);
      photos > kMaxPhotos)
    throw std::invalid_argument("photo_rate_per_hour = " + num(photo_rate_per_hour) +
                                " implies " + num(photos) +
                                " photos over the horizon, over the limit of " +
                                num(kMaxPhotos));
  if (!std::isfinite(sim.sample_interval_s) || sim.sample_interval_s <= 0.0)
    throw std::invalid_argument("sim.sample_interval_s = " + num(sim.sample_interval_s) +
                                " must be finite and positive");
  if (const double samples = horizon_s / sim.sample_interval_s; samples > kMaxSamples)
    throw std::invalid_argument("sim.sample_interval_s = " + num(sim.sample_interval_s) +
                                " implies " + num(samples) +
                                " coverage samples over the horizon, over the limit of " +
                                num(kMaxSamples));
  if (num_pois > kMaxPois)
    throw std::invalid_argument("num_pois = " + std::to_string(num_pois) +
                                " is over the limit of " + std::to_string(kMaxPois));
  // PoI and photo coordinates are drawn in [0, region_m]; the PoI grid
  // converts them to integer cells.
  if (!std::isfinite(region_m) || region_m <= 0.0)
    throw std::invalid_argument("region_m = " + num(region_m) +
                                " must be finite and positive");
  // The synthetic trace divides participant ids by the team size.
  if (trace.team_size < 1)
    throw std::invalid_argument("trace.team_size = " + std::to_string(trace.team_size) +
                                " must be at least 1");
  check_synthetic_trace(trace, horizon_s);
}

}  // namespace photodtn

#include "workload/scenario.h"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "util/to_chars.h"

namespace photodtn {

namespace {

// Bounds on the run a scenario may imply, each at least 100x a paper-scale
// run (Table I: 250 PoIs, 300 h, 75,000 photos, 30 coverage samples).
constexpr std::size_t kMaxPois = 100'000;
constexpr double kMaxHorizonS = 30'000.0 * 3600.0;
constexpr double kMaxPhotos = 1e7;
constexpr double kMaxSamples = 1e5;

std::string num(double v) {
  std::string out;
  append_chars(out, v);
  return out;
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
}

}  // namespace photodtn

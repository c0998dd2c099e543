// The repo's only sanctioned wall-clock access point. Simulation logic must
// never read a real clock (the banned-wallclock lint rule enforces it:
// std::chrono::*_clock::now() is allowed only under src/obs/ and bench/);
// components that want wall-clock *perf* readings — the thread pool's lane
// utilization and task-latency buckets, timed on every chunk — call through
// here, and the data only ever surfaces in the non-golden wallPerf trace
// section.
//
// Header-only so photodtn_util can time itself without linking photodtn_obs
// (obs depends on util, not the other way around).
#pragma once

#include <chrono>
#include <cstdint>

namespace photodtn::obs {

/// Monotonic wall-clock nanoseconds (epoch unspecified; differences only).
inline std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace photodtn::obs

// Chrome trace-event sink: renders the trace view of an event log (plus an
// optional metrics snapshot and an optional wall-clock perf section) into
// the JSON format chrome://tracing and Perfetto open directly. Each event's
// name, category, phase, thread and args derive from its kind; a coverage
// sample renders as four counter tracks.
//
// Timestamps: Chrome wants microseconds; we map 1 simulation second to 1e6
// "microseconds", so the trace timeline *is* the simulation clock. Because
// every event is keyed by simulation time and the log's order is its
// emission order, the emitted document is byte-identical across reruns and
// thread counts. The only wall-clock data allowed anywhere near a trace is
// the `wallPerf` top-level section (thread-pool lane utilization and task
// latency) — explicitly opt-in, never golden-compared.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace photodtn {

struct ThreadPoolStats;

namespace obs {

/// Non-golden wall-clock perf data rendered under the "wallPerf" key.
struct WallPerfSection {
  struct Lane {
    std::string name;
    std::uint64_t chunks = 0;
    std::uint64_t busy_ns = 0;
  };
  std::vector<Lane> lanes;
  std::vector<std::uint64_t> task_latency_bounds_ns;
  std::vector<std::uint64_t> task_latency_counts;  // bounds + 1 (overflow)
};

/// Converts a thread pool's lane/latency readings into a wallPerf section.
WallPerfSection wall_section_from_pool(const ThreadPoolStats& stats);

/// The full document: {"displayTimeUnit":"ms","traceEvents":[...]} plus
/// optional "photodtnMetrics" and "wallPerf" top-level keys. Events the
/// trace view does not show are skipped.
std::string chrome_trace_json(std::span<const Event> events,
                              const MetricsSnapshot* metrics = nullptr,
                              const WallPerfSection* wall = nullptr);

/// Writes chrome_trace_json to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path, std::span<const Event> events,
                        const MetricsSnapshot* metrics = nullptr,
                        const WallPerfSection* wall = nullptr);

}  // namespace obs
}  // namespace photodtn

// Chrome trace-event sink: renders the trace view of an event log (plus an
// optional metrics snapshot) into the JSON format chrome://tracing and
// Perfetto open directly. Each event's name, category, phase, thread and
// args derive from its kind; a coverage sample renders as four counter
// tracks.
//
// Timestamps: Chrome wants microseconds; we map 1 simulation second to 1e6
// "microseconds", so the trace timeline *is* the simulation clock. Because
// every event is keyed by simulation time and the log's order is its
// emission order, the emitted document is byte-identical across reruns and
// thread counts. No wall-clock reading reaches a trace.
#pragma once

#include <span>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace photodtn::obs {

/// The full document: {"displayTimeUnit":"ms","traceEvents":[...]} plus an
/// optional "photodtnMetrics" top-level key. Events the trace view does not
/// show are skipped.
std::string chrome_trace_json(std::span<const Event> events,
                              const MetricsSnapshot* metrics = nullptr);

/// Writes chrome_trace_json to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path, std::span<const Event> events,
                        const MetricsSnapshot* metrics = nullptr);

}  // namespace photodtn::obs

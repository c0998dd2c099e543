#include "obs/chrome_trace.h"

#include <string>
#include <string_view>
#include <utility>

#include "persist/file_io.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace photodtn::obs {

namespace {

void write_event(JsonWriter& w, const TraceEvent& ev) {
  w.begin_object();
  w.kv("name", ev.name);
  if (ev.cat[0] != '\0') w.kv("cat", ev.cat);
  const char phase = static_cast<char>(ev.phase);
  w.kv("ph", std::string_view(&phase, 1));
  // 1 simulation second == 1e6 trace "microseconds": the timeline is the
  // simulation clock, so the document never depends on wall time.
  w.kv("ts", ev.ts_s * 1e6);
  if (ev.phase == TraceEvent::Phase::kComplete) w.kv("dur", ev.dur_s * 1e6);
  if (ev.phase == TraceEvent::Phase::kInstant) w.kv("s", "t");  // thread scope
  w.kv("pid", std::uint64_t{0});
  w.kv("tid", static_cast<std::int64_t>(ev.tid));
  if (ev.nargs > 0) {
    w.key("args").begin_object();
    for (std::uint32_t i = 0; i < ev.nargs; ++i) {
      w.kv(ev.args[i].first, ev.args[i].second);
    }
    w.end_object();
  }
  w.end_object();
}

void write_wall_perf(JsonWriter& w, const WallPerfSection& wall) {
  w.begin_object();
  w.key("lanes").begin_array();
  for (const WallPerfSection::Lane& lane : wall.lanes) {
    w.begin_object();
    w.kv("name", lane.name);
    w.kv("chunks", lane.chunks);
    w.kv("busy_ns", lane.busy_ns);
    w.end_object();
  }
  w.end_array();
  w.key("taskLatencyNs").begin_object();
  w.key("bounds").begin_array();
  for (std::uint64_t b : wall.task_latency_bounds_ns) w.value(b);
  w.end_array();
  w.key("counts").begin_array();
  for (std::uint64_t c : wall.task_latency_counts) w.value(c);
  w.end_array();
  w.end_object();
  w.end_object();
}

}  // namespace

WallPerfSection wall_section_from_pool(const ThreadPoolStats& stats) {
  WallPerfSection out;
  out.lanes.reserve(stats.lanes.size());
  for (std::size_t i = 0; i < stats.lanes.size(); ++i) {
    WallPerfSection::Lane lane;
    // The last lane aggregates the calling threads (see util/thread_pool.h).
    lane.name = i + 1 == stats.lanes.size() ? "callers"
                                            : "worker-" + std::to_string(i);
    lane.chunks = stats.lanes[i].chunks;
    lane.busy_ns = stats.lanes[i].busy_ns;
    out.lanes.push_back(std::move(lane));
  }
  out.task_latency_bounds_ns = stats.task_latency_bounds_ns;
  out.task_latency_counts = stats.task_latency_counts;
  return out;
}

std::string chrome_trace_json(std::span<const TraceEvent> events,
                              const MetricsSnapshot* metrics,
                              const WallPerfSection* wall) {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  // A process-name metadata record so viewers label the single pid.
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", std::uint64_t{0});
  w.key("args").begin_object();
  w.kv("name", "photodtn simulation (ts = sim microseconds)");
  w.end_object();
  w.end_object();
  for (const TraceEvent& ev : events) write_event(w, ev);
  w.end_array();
  if (metrics != nullptr && !metrics->empty()) {
    w.key("photodtnMetrics");
    metrics->write_json(w);
  }
  if (wall != nullptr) {
    w.key("wallPerf");
    write_wall_perf(w, *wall);
  }
  w.end_object();
  return std::move(w).str();
}

bool write_chrome_trace(const std::string& path, std::span<const TraceEvent> events,
                        const MetricsSnapshot* metrics, const WallPerfSection* wall) {
  return persist::checked_write_file(path,
                                     chrome_trace_json(events, metrics, wall) + "\n");
}

}  // namespace photodtn::obs

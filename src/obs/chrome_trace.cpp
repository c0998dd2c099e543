#include "obs/chrome_trace.h"

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "persist/file_io.h"
#include "util/json.h"

namespace photodtn::obs {

namespace {

using Arg = std::pair<const char*, double>;

/// One trace-event object. `phase` is 'X' (span: ts + dur), 'i' (instant)
/// or 'C' (counter sample).
void write_trace_event(JsonWriter& w, const char* name, const char* cat, char phase,
                       double ts_s, double dur_s, std::int32_t tid,
                       std::initializer_list<Arg> args) {
  w.begin_object();
  w.kv("name", name);
  w.kv("cat", cat);
  w.kv("ph", std::string_view(&phase, 1));
  // 1 simulation second == 1e6 trace "microseconds": the timeline is the
  // simulation clock, so the document never depends on wall time.
  w.kv("ts", ts_s * 1e6);
  if (phase == 'X') w.kv("dur", dur_s * 1e6);
  if (phase == 'i') w.kv("s", "t");  // thread scope
  w.kv("pid", std::uint64_t{0});
  w.kv("tid", static_cast<std::int64_t>(tid));
  if (args.size() > 0) {
    w.key("args").begin_object();
    for (const auto& [key, value] : args) w.kv(key, value);
    w.end_object();
  }
  w.end_object();
}

void write_event(JsonWriter& w, const Event& ev) {
  using Kind = Event::Kind;
  const auto num = [](auto v) { return static_cast<double>(v); };
  const auto instant = [&](const char* name, const char* cat,
                           std::initializer_list<Arg> args) {
    write_trace_event(w, name, cat, 'i', ev.ts_s, 0.0, ev.node, args);
  };
  const auto counter = [&](const char* name, double value) {
    write_trace_event(w, name, "counter", 'C', ev.ts_s, 0.0, 0, {{"value", value}});
  };
  if (!shows(View::kTrace, ev)) return;
  switch (ev.kind) {
    case Kind::kCapture:
      return instant("capture", "photo", {{"photo", num(ev.photo)}});
    case Kind::kTransfer:
      return instant("transfer", "photo",
                     {{"photo", num(ev.photo)}, {"to", num(ev.peer)}, {"bytes", num(ev.bytes)}});
    case Kind::kDrop:
      return instant("drop", "photo", {{"photo", num(ev.photo)}});
    case Kind::kDelivery:
      return instant("delivery", "delivery",
                     {{"photo", num(ev.photo)}, {"from", num(ev.peer)}});
    case Kind::kCrashWipe:
      return instant("crash", "fault", {{"wipe", 1.0}});
    case Kind::kCrash:
      return instant("crash", "fault", {{"wipe", 0.0}});
    case Kind::kReboot:
      return instant("reboot", "fault", {});
    case Kind::kLinkCut:
      return instant("linkcut", "fault", {{"peer", num(ev.peer)}, {"photo", num(ev.photo)}});
    case Kind::kContact:
      return write_trace_event(
          w, "contact", "contact", 'X', ev.ts_s, ev.aux, ev.node,
          {{"peer", num(ev.peer)}, {"bytes", num(ev.bytes)}, {"budget", ev.value}});
    case Kind::kSample:
      // Counter tracks for the timeline (Chrome renders them as area charts
      // above the event lanes).
      counter("delivered_photos", num(ev.photo));
      counter("bytes_transferred", num(ev.bytes));
      counter("point_coverage", ev.value);
      counter("aspect_coverage", ev.aux);
      return;
    case Kind::kSelect:
      return instant("select", "selection", {{"pool", ev.value}, {"delivered", ev.aux}});
    case Kind::kReallocate:
      return instant("reallocate", "selection",
                     {{"pool", ev.value},
                      {"peer", num(ev.peer)},
                      {"first_target", ev.aux},
                      {"second_target", num(ev.bytes)}});
    case Kind::kGossip:
    case Kind::kMetadataBytes:
    case Kind::kSprayDecrement:
    case Kind::kSelectCommit:
      return;  // provenance only
  }
}

}  // namespace

std::string chrome_trace_json(std::span<const Event> events,
                              const MetricsSnapshot* metrics) {
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
  for (const Event& ev : events) write_event(w, ev);
  w.end_array();
  if (metrics != nullptr && !metrics->empty()) {
    w.key("photodtnMetrics");
    metrics->write_json(w);
  }
  w.end_object();
  return std::move(w).str();
}

bool write_chrome_trace(const std::string& path, std::span<const Event> events,
                        const MetricsSnapshot* metrics) {
  return persist::checked_write_file(path, chrome_trace_json(events, metrics) + "\n");
}

}  // namespace photodtn::obs

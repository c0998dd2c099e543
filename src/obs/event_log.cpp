#include "obs/event_log.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace photodtn::obs {

std::vector<Event> EventLog::view(View view) const {
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(), [&](const Event& ev) { return shows(view, ev); })));
  for (const Event& ev : events_)
    if (shows(view, ev)) out.push_back(ev);
  return out;
}

void EventLog::audit() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw std::logic_error(std::string("EventLog::audit: ") + what);
  };
  double prev_ts = -std::numeric_limits<double>::infinity();
  for (const Event& ev : events_) {
    check(static_cast<std::uint8_t>(ev.kind) <= Event::kMaxKind, "kind out of range");
    check(static_cast<std::uint8_t>(ev.outcome) <= Event::kMaxOutcome,
          "outcome out of range");
    check(std::isfinite(ev.ts_s), "non-finite timestamp");
    check(std::isfinite(ev.value) && std::isfinite(ev.aux), "non-finite payload");
    check(ev.ts_s >= prev_ts, "timestamps decrease");
    check(keeps(ev), "event shown by no view that is on");
    prev_ts = ev.ts_s;
  }
}

}  // namespace photodtn::obs

#include "obs/provenance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace photodtn::obs {

void ProvenanceRecorder::record(ProvEvent ev) {
  ev.seq = next_seq_++;
  events_.push_back(ev);
}

void ProvenanceRecorder::restore_events(std::vector<ProvEvent> events,
                                        std::uint64_t next_seq) {
  events_ = std::move(events);
  next_seq_ = next_seq;
}

std::vector<ProvEvent> ProvenanceRecorder::merged() const {
  std::vector<ProvEvent> out = events_;
  std::sort(out.begin(), out.end(), [](const ProvEvent& x, const ProvEvent& y) {
    if (x.ts_s != y.ts_s) return x.ts_s < y.ts_s;
    return x.seq < y.seq;
  });
  return out;
}

void ProvenanceRecorder::audit() const {
  auto check = [](bool ok, const char* what) {
    if (!ok)
      throw std::logic_error(std::string("ProvenanceRecorder::audit: ") + what);
  };
  std::unordered_set<std::uint64_t> seqs;
  for (const ProvEvent& ev : events_) {
    check(static_cast<std::uint8_t>(ev.kind) <= ProvEvent::kMaxKind,
          "kind out of range");
    check(static_cast<std::uint8_t>(ev.outcome) <= ProvEvent::kMaxOutcome,
          "outcome out of range");
    check(std::isfinite(ev.ts_s), "non-finite timestamp");
    check(std::isfinite(ev.value) && std::isfinite(ev.aux),
          "non-finite payload");
    check(seqs.insert(ev.seq).second, "duplicate sequence stamp");
  }
}

}  // namespace photodtn::obs

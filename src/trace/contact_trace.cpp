#include "trace/contact_trace.h"

#include <algorithm>

#include "util/check.h"

namespace photodtn {

ContactTrace::ContactTrace(std::vector<Contact> contacts, NodeId num_nodes,
                           double horizon)
    : contacts_(std::move(contacts)), num_nodes_(num_nodes), horizon_(horizon) {
  // Total deterministic order: equal start times (common after scan-interval
  // quantization) are broken by endpoints so replays and round-trips through
  // trace files process contacts identically.
  std::sort(contacts_.begin(), contacts_.end(), [](const Contact& x, const Contact& y) {
    if (x.start != y.start) return x.start < y.start;
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.duration < y.duration;
  });
  validate();
}

void ContactTrace::validate() const {
  PHOTODTN_CHECK_MSG(num_nodes_ >= 2, "a trace needs the command center plus one node");
  PHOTODTN_CHECK_MSG(horizon_ >= 0.0, "horizon must be non-negative");
  for (const Contact& c : contacts_) {
    PHOTODTN_CHECK_MSG(c.a >= 0 && c.a < num_nodes_, "contact endpoint out of range");
    PHOTODTN_CHECK_MSG(c.b >= 0 && c.b < num_nodes_, "contact endpoint out of range");
    PHOTODTN_CHECK_MSG(c.a != c.b, "self-contact");
    PHOTODTN_CHECK_MSG(c.start >= 0.0 && c.duration >= 0.0, "negative contact time");
  }
}

TraceStats ContactTrace::stats() const {
  TraceStats s;
  s.contacts = contacts_.size();
  double dur_sum = 0.0;
  std::map<std::pair<NodeId, NodeId>, std::vector<double>> pair_starts;
  for (const Contact& c : contacts_) {
    dur_sum += c.duration;
    const auto key = std::minmax(c.a, c.b);
    pair_starts[{key.first, key.second}].push_back(c.start);
    if (c.involves(kCommandCenter)) ++s.command_center_contacts;
  }
  if (s.contacts > 0) s.mean_duration = dur_sum / static_cast<double>(s.contacts);
  s.pairs_with_contact = pair_starts.size();
  double ict_sum = 0.0;
  std::size_t ict_n = 0;
  for (auto& [pair, starts] : pair_starts) {
    std::sort(starts.begin(), starts.end());
    for (std::size_t i = 1; i < starts.size(); ++i) {
      ict_sum += starts[i] - starts[i - 1];
      ++ict_n;
    }
  }
  if (ict_n > 0) s.mean_inter_contact = ict_sum / static_cast<double>(ict_n);
  return s;
}

ContactTrace ContactTrace::with_max_duration(double max_duration) const {
  PHOTODTN_CHECK(max_duration >= 0.0);
  std::vector<Contact> out = contacts_;
  for (Contact& c : out) c.duration = std::min(c.duration, max_duration);
  return ContactTrace{std::move(out), num_nodes_, horizon_};
}

}  // namespace photodtn

// Contact traces: the sequence of pairwise encounter opportunities that
// drives the DTN simulation. Node 0 is always the command center; nodes
// 1..N are participants. Times are seconds since the start of the event.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "coverage/photo.h"  // NodeId, kCommandCenter

namespace photodtn {

struct Contact {
  double start = 0.0;
  double duration = 0.0;
  NodeId a = -1;
  NodeId b = -1;

  double end() const noexcept { return start + duration; }
  bool involves(NodeId n) const noexcept { return a == n || b == n; }
  bool operator==(const Contact&) const = default;
};

/// Aggregate statistics used by tests and by the trace generator's
/// self-calibration.
struct TraceStats {
  std::size_t contacts = 0;
  double mean_duration = 0.0;
  double mean_inter_contact = 0.0;  // across all pairs with >= 2 contacts
  std::size_t pairs_with_contact = 0;
  std::size_t command_center_contacts = 0;
};

class ContactTrace {
 public:
  ContactTrace() = default;
  /// `num_nodes` counts participants + the command center (ids 0..num_nodes-1).
  ContactTrace(std::vector<Contact> contacts, NodeId num_nodes, double horizon);

  const std::vector<Contact>& contacts() const noexcept { return contacts_; }
  NodeId num_nodes() const noexcept { return num_nodes_; }
  /// End of the observation window in seconds.
  double horizon() const noexcept { return horizon_; }

  TraceStats stats() const;

  /// Caps every contact's duration at `max_duration` seconds (used by the
  /// Fig. 6 contact-duration sweep).
  ContactTrace with_max_duration(double max_duration) const;

  bool empty() const noexcept { return contacts_.empty(); }
  std::size_t size() const noexcept { return contacts_.size(); }

 private:
  void validate() const;

  std::vector<Contact> contacts_;
  NodeId num_nodes_ = 0;
  double horizon_ = 0.0;
};

}  // namespace photodtn

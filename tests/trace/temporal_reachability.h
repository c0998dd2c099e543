// Time-respecting reachability over a contact trace. A photo taken by node
// `n` at time `t` can reach the command center iff there is a sequence of
// contacts c_1, ..., c_k with non-decreasing times starting at or after t,
// hopping n -> ... -> 0. With storage and bandwidth unconstrained this is
// *exactly* the set BestPossible delivers, which makes this test-only
// module a differential oracle for the whole simulator (the tests compare
// the two).
#pragma once

#include <vector>

#include "trace/contact_trace.h"

namespace photodtn {

/// Earliest time each node's data (present from time 0) can reach `target`.
/// Entry is +inf when unreachable within the trace.
std::vector<double> earliest_arrival(const ContactTrace& trace, NodeId target);

/// Earliest time data originating at `origin` at time `origin_time` can
/// reach `target`; +inf if never. A contact can forward data that exists at
/// or before the contact's start.
double earliest_arrival_from(const ContactTrace& trace, NodeId origin,
                             double origin_time, NodeId target);

/// For a batch of (origin node, creation time) items: whether each can reach
/// the command center within the trace horizon. Runs one backward sweep over
/// the contacts, O(contacts + items), rather than per-item searches.
std::vector<bool> reachable_to_center(const ContactTrace& trace,
                                      const std::vector<std::pair<NodeId, double>>& items);

}  // namespace photodtn

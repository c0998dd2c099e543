// CSV persistence for contact traces, so experiments can be replayed on
// identical inputs and externally collected traces can be imported.
//
// Format:
//   # photodtn-trace v1 nodes=<N> horizon=<seconds>
//   start,duration,a,b
//   <double>,<double>,<int>,<int>
#pragma once

#include <iosfwd>
#include <string>

#include "trace/contact_trace.h"

namespace photodtn {

void write_trace(std::ostream& os, const ContactTrace& trace);
bool write_trace_file(const std::string& path, const ContactTrace& trace);

/// Throws std::runtime_error on malformed input, including a nodes= count
/// outside [2, 100000].
ContactTrace read_trace(std::istream& is);
ContactTrace read_trace_file(const std::string& path);

}  // namespace photodtn

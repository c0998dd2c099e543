#include "trace/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "persist/file_io.h"

namespace photodtn {

void write_trace(std::ostream& os, const ContactTrace& trace) {
  os << "# photodtn-trace v1 nodes=" << trace.num_nodes()
     << " horizon=" << trace.horizon() << '\n';
  os << "start,duration,a,b\n";
  os.precision(17);
  for (const Contact& c : trace.contacts())
    os << c.start << ',' << c.duration << ',' << c.a << ',' << c.b << '\n';
}

bool write_trace_file(const std::string& path, const ContactTrace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return persist::checked_write_file(path, os.str());
}

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("malformed trace file: " + what);
}

/// Parses all of `text` as a T: false on an empty token, trailing junk or a
/// value out of T's range.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

ContactTrace read_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) malformed("empty input");
  std::int64_t nodes = 0;
  double horizon = 0.0;
  {
    std::istringstream header(line);
    std::string tok;
    while (header >> tok) {
      if (tok.rfind("nodes=", 0) == 0) {
        const std::string v = tok.substr(6);
        if (!parse_whole(v, nodes) || nodes < 2 ||
            nodes > std::numeric_limits<NodeId>::max())
          malformed("nodes=" + v + " is not an integer in [2, 2147483647]");
      }
      if (tok.rfind("horizon=", 0) == 0) {
        const std::string v = tok.substr(8);
        if (!parse_whole(v, horizon) || !std::isfinite(horizon) || horizon < 0.0)
          malformed("horizon=" + v + " is not a finite number >= 0");
      }
    }
  }
  if (nodes == 0) malformed("missing nodes= in header");
  if (!std::getline(is, line)) malformed("missing column header");

  std::vector<Contact> contacts;
  std::size_t line_no = 2;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    Contact c;
    char comma = 0;
    if (!(row >> c.start >> comma >> c.duration >> comma >> c.a >> comma >> c.b))
      malformed("bad row at line " + std::to_string(line_no));
    contacts.push_back(c);
  }
  return ContactTrace{std::move(contacts), static_cast<NodeId>(nodes), horizon};
}

ContactTrace read_trace_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(f);
}

}  // namespace photodtn

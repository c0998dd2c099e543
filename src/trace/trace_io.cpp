#include "trace/trace_io.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "persist/file_io.h"
#include "util/to_chars.h"

namespace photodtn {

namespace {

/// The most nodes a trace may declare: 1000x the paper's 97. The simulator
/// sizes its per-node state by this count before it reads a contact.
constexpr std::int64_t kMaxTraceNodes = 100'000;

/// The CSV text: the horizon at 6 significant digits ("%g"), times at 17
/// ("%.17g"), formatted locale-free so the file reads back under any
/// global locale.
std::string format_trace(const ContactTrace& trace) {
  std::string out = "# photodtn-trace v1 nodes=";
  append_chars(out, trace.num_nodes());
  out += " horizon=";
  append_chars(out, trace.horizon(), std::chars_format::general, 6);
  out += "\nstart,duration,a,b\n";
  for (const Contact& c : trace.contacts()) {
    append_chars(out, c.start, std::chars_format::general, 17);
    out += ',';
    append_chars(out, c.duration, std::chars_format::general, 17);
    out += ',';
    append_chars(out, c.a);
    out += ',';
    append_chars(out, c.b);
    out += '\n';
  }
  return out;
}

}  // namespace

void write_trace(std::ostream& os, const ContactTrace& trace) {
  const std::string text = format_trace(trace);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

bool write_trace_file(const std::string& path, const ContactTrace& trace) {
  return persist::checked_write_file(path, format_trace(trace));
}

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("malformed trace file: " + what);
}

/// Parses all of `text` as a T: false on an empty token, trailing junk or a
/// value out of T's range.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Parses a data row as exactly four comma-separated whole tokens,
/// start,duration,a,b, with finite times (from_chars, unlike a stream,
/// accepts inf and nan).
bool parse_row(std::string_view row, Contact& c) {
  std::array<std::string_view, 4> field;
  for (std::size_t k = 0; k + 1 < field.size(); ++k) {
    const std::size_t comma = row.find(',');
    if (comma == std::string_view::npos) return false;
    field[k] = row.substr(0, comma);
    row.remove_prefix(comma + 1);
  }
  field.back() = row;  // a fifth field leaves a comma here, failing b
  return parse_whole(field[0], c.start) && std::isfinite(c.start) &&
         parse_whole(field[1], c.duration) && std::isfinite(c.duration) &&
         parse_whole(field[2], c.a) && parse_whole(field[3], c.b);
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
        if (!parse_whole(v, nodes) || nodes < 2 || nodes > kMaxTraceNodes)
          malformed("nodes=" + v + " is not an integer in [2, " +
                    std::to_string(kMaxTraceNodes) + "]");
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
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF files
    if (line.empty() || line[0] == '#') continue;
    Contact c;
    if (!parse_row(line, c)) malformed("bad row at line " + std::to_string(line_no));
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

#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <locale>
#include <ostream>
#include <sstream>

#include "persist/file_io.h"
#include "util/check.h"

namespace photodtn {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  PHOTODTN_CHECK_MSG(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<Cell> cells) {
  PHOTODTN_CHECK_MSG(cells.size() == headers_.size(), "row width != header width");
  rows_.push_back(std::move(cells));
}

std::string Table::format_cell(const Cell& c) const {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&c)) return std::to_string(*i);
  std::ostringstream os;
  os.imbue(std::locale::classic());  // "1234.5000" under any global locale
  os << std::fixed << std::setprecision(kPrecision) << std::get<double>(c);
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      r.push_back(format_cell(row[i]));
      widths[i] = std::max(widths[i], r.back().size());
    }
    rendered.push_back(std::move(r));
  }
  auto line = [&] {
    os << '+';
    for (const auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  line();
  os << '|';
  for (std::size_t i = 0; i < headers_.size(); ++i)
    os << ' ' << std::setw(static_cast<int>(widths[i])) << std::left << headers_[i] << " |";
  os << '\n';
  line();
  for (const auto& r : rendered) {
    os << '|';
    for (std::size_t i = 0; i < r.size(); ++i)
      os << ' ' << std::setw(static_cast<int>(widths[i])) << std::right << r[i] << " |";
    os << '\n';
  }
  line();
}

void Table::write_csv(std::ostream& os) const {
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  };
  for (std::size_t i = 0; i < headers_.size(); ++i)
    os << (i ? "," : "") << quote(headers_[i]);
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i)
      os << (i ? "," : "") << quote(format_cell(row[i]));
    os << '\n';
  }
}

bool Table::write_csv_file(const std::string& path) const {
  std::ostringstream os;
  write_csv(os);
  return persist::checked_write_file(path, os.str());
}

}  // namespace photodtn

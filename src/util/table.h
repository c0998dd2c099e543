// Console table / CSV emitter for benchmark harnesses. Every figure bench
// prints the same rows the paper plots; Table keeps them aligned and can
// mirror the data to a CSV file for external plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace photodtn {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  using Cell = std::variant<std::string, double, std::int64_t>;

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<Cell> cells);

  /// Number of data rows.
  std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders an aligned ASCII table.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void write_csv(std::ostream& os) const;

  /// Convenience: writes CSV to `path`; returns false (and leaves no partial
  /// file guarantee) if the file cannot be opened.
  bool write_csv_file(const std::string& path) const;

 private:
  std::string format_cell(const Cell& c) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  static constexpr int kPrecision = 4;  // digits after the point for doubles
};

}  // namespace photodtn

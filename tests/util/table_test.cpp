#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "test_util.h"

namespace photodtn {
namespace {

TEST(Table, PrintsAlignedHeadersAndRows) {
  Table t({"scheme", "coverage"});
  t.add_row({std::string("ours"), 0.75});
  t.add_row({std::string("spray"), 0.25});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("scheme"), std::string::npos);
  EXPECT_NE(s.find("ours"), std::string::npos);
  EXPECT_NE(s.find("0.7500"), std::string::npos);
}

TEST(Table, RowWidthEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::logic_error);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"name", "v"});
  t.add_row({std::string("has,comma"), std::int64_t{3}});
  t.add_row({std::string("has\"quote"), std::int64_t{4}});
  std::ostringstream os;
  t.write_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, IntsRenderWithoutDecimals) {
  Table t({"n"});
  t.add_row({std::int64_t{42}});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\n42\n"), std::string::npos);
}

TEST(Table, CellsIgnoreTheGlobalLocale) {
  Table t({"scheme", "coverage", "photos"});
  t.add_row({std::string("ours"), 1234.5, std::int64_t{1'234'567}});
  const auto csv = [&] {
    std::ostringstream os;
    t.write_csv(os);
    return os.str();
  };
  const auto printed = [&] {
    std::ostringstream os;
    t.print(os);
    return os.str();
  };
  const std::string expected_csv = "scheme,coverage,photos\nours,1234.5000,1234567\n";
  ASSERT_EQ(csv(), expected_csv);
  const std::string expected_table = printed();
  ASSERT_NE(expected_table.find("| 1234.5000 |"), std::string::npos);
  const test::GroupingLocaleScope grouping;
  EXPECT_EQ(csv(), expected_csv);
  EXPECT_EQ(printed(), expected_table);
}

}  // namespace
}  // namespace photodtn

#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

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

}  // namespace
}  // namespace photodtn

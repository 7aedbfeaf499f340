#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mgq::util {
namespace {

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.addRow({"1"});
  std::ostringstream os;
  t.render(os);
  EXPECT_EQ(os.str(),
            "| a   | b   | c   |\n"
            "|-----|-----|-----|\n"
            "| 1   |     |     |\n");
}

TEST(TableTest, MarkdownAlignsColumns) {
  // A multi-byte UTF-8 character takes one column.
  Table t({"col", "x"});
  t.addRow({"longvalue", "1"});
  t.addRow({"§5.4", "22"});
  std::ostringstream os;
  t.render(os);
  EXPECT_EQ(os.str(),
            "| col       | x   |\n"
            "|-----------|-----|\n"
            "| longvalue | 1   |\n"
            "| §5.4      | 22  |\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(1234.5), "1234.5");
}

TEST(TableTest, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.rowCount(), 0u);
  t.addRow({"x"});
  EXPECT_EQ(t.rowCount(), 1u);
}

}  // namespace
}  // namespace mgq::util

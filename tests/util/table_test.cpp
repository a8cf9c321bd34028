#include "util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace rt {
namespace {

TEST(Table, RendersAlignedGrid) {
  Table t({"task", "benefit"});
  t.add_row({"stereo", "22.49"});
  t.add_row({"edge-detection", "28.16"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| task           | benefit |"), std::string::npos);
  EXPECT_NE(s.find("| edge-detection | 28.16   |"), std::string::npos);
  // 3 rules + header + 2 rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 6);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, FmtFixedPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt(-0.5), "-0.500");
}

}  // namespace
}  // namespace rt

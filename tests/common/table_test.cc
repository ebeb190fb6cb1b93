#include "src/common/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace pad {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "v"});
  table.AddRow({"a", "1000"});
  table.AddRow({"long_name", "2"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  // Every line has the same column start for the second field.
  EXPECT_NE(text.find("name       v"), std::string::npos);
  EXPECT_NE(text.find("a          1000"), std::string::npos);
  EXPECT_NE(text.find("long_name  2"), std::string::npos);
}

TEST(TextTableTest, SeparatorLinePresent) {
  TextTable table({"x"});
  table.AddRow({"1"});
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("-"), std::string::npos);
}

TEST(TextTableDeathTest, ArityMismatchAborts) {
  TextTable table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only_one"}), "arity");
}

TEST(PrintBannerTest, ContainsTitle) {
  std::ostringstream out;
  PrintBanner(out, "hello");
  EXPECT_EQ(out.str(), "\n== hello ==\n");
}

}  // namespace
}  // namespace pad

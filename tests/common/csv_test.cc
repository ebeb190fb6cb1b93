#include "src/common/csv.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace pad {
namespace {

// Parses text that the test expects to be well formed.
CsvTable Parse(std::string_view text) {
  std::string error;
  std::optional<CsvTable> table = TryParseCsv(text, &error);
  EXPECT_TRUE(table.has_value()) << error;
  return table.value_or(CsvTable{});
}

TEST(CsvWriterTest, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"a", "b", "c"});
  writer.WriteRow({"1", "2", "3"});
  EXPECT_EQ(out.str(), "a,b,c\n1,2,3\n");
}

TEST(CsvWriterTest, NumericFieldsRoundTrip) {
  EXPECT_EQ(CsvWriter::Field(static_cast<int64_t>(-42)), "-42");
  const std::string pi = CsvWriter::Field(3.141592653589793);
  EXPECT_DOUBLE_EQ(std::stod(pi), 3.141592653589793);
}

TEST(ParseCsvTest, HeaderAndRows) {
  const CsvTable table = Parse("x,y\n1,2\n3,4\n");
  ASSERT_EQ(table.header.size(), 2u);
  EXPECT_EQ(table.header[0], "x");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "4");
}

TEST(ParseCsvTest, SkipsCommentsAndBlankLines) {
  const CsvTable table = Parse("# comment\n\nx,y\n# another\n5,6\n\n");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "5");
}

TEST(ParseCsvTest, HandlesCrLf) {
  const CsvTable table = Parse("x,y\r\n1,2\r\n");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(ParseCsvTest, NoTrailingNewline) {
  const CsvTable table = Parse("x\n7");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "7");
}

TEST(ParseCsvTest, EmptyInput) {
  const CsvTable table = Parse("");
  EXPECT_TRUE(table.header.empty());
  EXPECT_TRUE(table.rows.empty());
}

TEST(ParseCsvTest, EmptyFieldsPreserved) {
  const CsvTable table = Parse("a,b,c\n1,,3\n");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "");
}

TEST(ParseCsvTest, RaggedRowIsAnError) {
  std::string error;
  EXPECT_FALSE(TryParseCsv("a,b\n1,2,3\n", &error).has_value());
  EXPECT_NE(error.find("ragged"), std::string::npos) << error;
}

TEST(CsvDeathTest, FieldWithCommaAborts) {
  std::ostringstream out;
  CsvWriter writer(out);
  EXPECT_DEATH(writer.WriteRow({"a,b"}), "must not contain");
}

TEST(RoundTripTest, WriteThenParse) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"t", "v"});
  writer.WriteRow({CsvWriter::Field(1.5), CsvWriter::Field(static_cast<int64_t>(9))});
  const CsvTable table = Parse(out.str());
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::stod(table.rows[0][0]), 1.5);
  EXPECT_EQ(table.rows[0][1], "9");
}

}  // namespace
}  // namespace pad

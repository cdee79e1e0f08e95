#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace corp::util {
namespace {

TEST(CsvEscapeTest, PlainFieldUnchanged) {
  EXPECT_EQ(escape_csv_field("hello"), "hello");
}

TEST(CsvEscapeTest, QuotesWhenNeeded) {
  EXPECT_EQ(escape_csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(escape_csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriterTest, QuotesFieldsThatNeedIt) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row(std::vector<std::string>{"name", "value"});
  writer.write_row(std::vector<std::string>{"with,comma", "1.5"});
  writer.write_row(std::vector<std::string>{"with\"quote", "-2"});
  EXPECT_EQ(out.str(),
            "name,value\n"
            "\"with,comma\",1.5\n"
            "\"with\"\"quote\",-2\n");
}

TEST(CsvWriterTest, DoubleRowsRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row(std::vector<double>{0.123456789012});
  EXPECT_NEAR(std::stod(out.str()), 0.123456789012, 1e-12);
}

TEST(FormatDoubleTest, CompactOutput) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.25, 3), "0.25");
}

}  // namespace
}  // namespace corp::util

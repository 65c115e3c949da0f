#include "benchlib/table.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbgas {
namespace {

TEST(AsciiTableTest, RendersAlignedColumns) {
  AsciiTable table({"PEs", "MOPS"});
  table.add_row({"1", "2.455"});
  table.add_row({"16", "14.3"});
  const std::string out = table.render();
  // Every line has the same width (aligned box).
  std::size_t expected = out.find('\n');
  std::size_t pos = 0;
  while (pos < out.size()) {
    const auto nl = out.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(nl - pos, expected) << "ragged line: " << out.substr(pos, nl - pos);
    pos = nl + 1;
  }
  EXPECT_NE(out.find("| PEs | MOPS  |"), std::string::npos);
  EXPECT_NE(out.find("| 16  | 14.3  |"), std::string::npos);
}

TEST(AsciiTableTest, CellFormatters) {
  EXPECT_EQ(AsciiTable::cell(2.4554999), "2.455");
  EXPECT_EQ(AsciiTable::cell(static_cast<long long>(-7)), "-7");
  EXPECT_EQ(AsciiTable::cell(static_cast<unsigned long long>(9)), "9");
}

TEST(AsciiTableTest, WidthGrowsWithContent) {
  AsciiTable table({"x"});
  table.add_row({"a-very-long-cell"});
  EXPECT_NE(table.render().find("| a-very-long-cell |"), std::string::npos);
}

TEST(AsciiTableTest, RowWidthMismatchThrows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(AsciiTableTest, EmptyHeadersRejected) {
  EXPECT_THROW(AsciiTable({}), Error);
}

TEST(AsciiTableTest, HeaderOnlyTableRenders) {
  AsciiTable table({"alone"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| alone |"), std::string::npos);
  // rule, header, rule, rule(bottom of empty body)
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(AsciiTableTest, RendersJsonWithTheSameCells) {
  AsciiTable table({"PEs", "note"});
  table.add_row({"4", "say \"hi\""});
  table.add_row({"8", "a\\b"});
  EXPECT_EQ(table.render_json(),
            "{\"headers\": [\"PEs\", \"note\"], \"rows\": [\n"
            "      [\"4\", \"say \\\"hi\\\"\"],\n"
            "      [\"8\", \"a\\\\b\"]]}");
}

}  // namespace
}  // namespace xbgas

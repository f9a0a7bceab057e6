/**
 * @file
 * Unit tests for the table writer.
 */

#include <gtest/gtest.h>

#include "common/table.hh"

namespace seqpoint {
namespace {

TEST(Table, RendersHeaderAndRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| alpha"), std::string::npos);
    EXPECT_NE(out.find("| 22"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, DoubleRowHelper)
{
    Table t({"label", "a", "b"});
    t.addRow("row", {1.5, 2.25}, "%.2f");
    std::string out = t.render();
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("2.25"), std::string::npos);
}

TEST(Table, CaptionAppears)
{
    Table t({"x"});
    std::string out = t.render("My caption");
    EXPECT_EQ(out.rfind("My caption", 0), 0u);
}

TEST(Table, ColumnsAlign)
{
    Table t({"h", "col"});
    t.addRow({"longer-cell", "x"});
    std::string out = t.render();
    // All lines between separators have the same width.
    size_t first_nl = out.find('\n');
    std::string sep = out.substr(0, first_nl);
    EXPECT_GT(sep.size(), 10u);
    for (size_t pos = 0; pos < out.size();) {
        size_t nl = out.find('\n', pos);
        if (nl == std::string::npos)
            break;
        EXPECT_EQ(nl - pos, sep.size());
        pos = nl + 1;
    }
}

TEST(TableDeath, RejectsWrongArity)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

} // anonymous namespace
} // namespace seqpoint

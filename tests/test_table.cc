#include "src/util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/util/logging.h"

namespace spotcache {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, CsvOutput) {
  TextTable t;
  t.SetHeader({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, NumAndPctFormat) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
  EXPECT_EQ(TextTable::Pct(0.256, 1), "25.6%");
  EXPECT_EQ(TextTable::Pct(1.0, 0), "100%");
}

TEST(SeriesPrinter, PrintsPointsInOrder) {
  SeriesPrinter s("series", {"x", "y"});
  s.AddPoint({1.0, 10.0});
  s.AddPoint({2.0, 20.0});
  std::ostringstream os;
  s.Print(os, 1);
  const std::string out = os.str();
  EXPECT_NE(out.find("series"), std::string::npos);
  EXPECT_LT(out.find("10.0"), out.find("20.0"));
  EXPECT_EQ(s.size(), 2u);
}

TEST(TextTable, RaggedRowsHandled) {
  TextTable t;
  t.SetHeader({"a"});
  t.AddRow({"1", "extra"});
  std::ostringstream os;
  t.Print(os);  // must not crash
  EXPECT_NE(os.str().find("extra"), std::string::npos);
}

TEST(Logging, LevelGatesOutput) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Should be suppressed (no crash, no assertion available on stderr; this
  // exercises the path).
  SPOTCACHE_LOG(kDebug) << "suppressed " << 42;
  SPOTCACHE_LOG(kError) << "emitted";
  SetLogLevel(before);
}

}  // namespace
}  // namespace spotcache

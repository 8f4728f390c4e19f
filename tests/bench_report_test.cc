// The shared bench report (bench/bench_util.h): the JSON a table writes
// and the spread a timed row reports.

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace exi::bench {
namespace {

TEST(BenchReportTest, TableRowsBecomeJsonObjects) {
  Table table({"name", "count", "ms"});
  table.Add({"a\"b\\c", 3, 1.5});
  table.Add({std::string("plain"), uint64_t(12), 0.0004});
  EXPECT_EQ(table.Json(),
            "[\n"
            "    {\"name\": \"a\\\"b\\\\c\", \"count\": 3, \"ms\": 1.500},\n"
            "    {\"name\": \"plain\", \"count\": 12, \"ms\": 0.000}\n"
            "  ]");
    EXPECT_EQ(table.Text(),
            "name   count     ms\n"
            "a\"b\\c      3  1.500\n"
            "plain     12  0.000\n");
  EXPECT_EQ(Table({"x"}).Json(), "[]");
}

TEST(BenchReportTest, SpreadOfOddAndEvenCounts) {
  const Spread odd = SpreadOf({5.0, 1.0, 3.0});
  EXPECT_EQ(odd.n, 3u);
  EXPECT_EQ(odd.median, 3.0);
  EXPECT_EQ(odd.min, 1.0);
  EXPECT_EQ(odd.max, 5.0);
  // An even count's median is the mean of the two middle samples.
  const Spread even = SpreadOf({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(even.n, 4u);
  EXPECT_EQ(even.median, 2.5);
  EXPECT_EQ(even.min, 1.0);
  EXPECT_EQ(even.max, 4.0);
  EXPECT_EQ(SpreadOf({7.0}).median, 7.0);
  EXPECT_EQ(SpreadOf({}).n, 0u);
}

TEST(BenchReportTest, TimedRowEndsWithTheSeriesColumns) {
  Series series;
  for (int run = 0; run < 3; ++run) {
    series.Start();
    series.Stop();
  }
  EXPECT_EQ(series.ms().n, 3u);
  Table table({"plan", "ms", "ms_min", "ms_max", "n", "logical_reads",
                    "odci_calls"});
  table.Add({"scan"}, series);
  const std::string json = table.Json();
  EXPECT_NE(json.find("\"n\": 3, \"logical_reads\": 0, \"odci_calls\": 0}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace exi::bench

// Tests for table rendering, CSV output, parallel_for, and environment
// configuration.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cvsafe/util/config.hpp"
#include "cvsafe/util/csv.hpp"
#include "cvsafe/util/interval_set.hpp"
#include "cvsafe/util/linalg.hpp"
#include "cvsafe/util/table.hpp"
#include "cvsafe/util/thread_pool.hpp"

namespace cvsafe::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("Title");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find('|'), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);  // includes separator entry
}

TEST(Table, ShortRowsPadded) {
  Table t;
  t.set_header({"x", "y", "z"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(-1.0, 0), "-1");
  EXPECT_EQ(Table::percent(0.9966), "99.66%");
  EXPECT_EQ(Table::percent(1.0, 0), "100%");
}

TEST(Csv, WritesQuotedCells) {
  const auto path =
      std::filesystem::temp_directory_path() / "cvsafe_csv_test.csv";
  {
    CsvWriter csv(path.string());
    ASSERT_TRUE(csv.ok());
    csv.header({"plain", "with,comma", "with\"quote"});
    csv.row({1.5, -2.0, 3.0});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "plain,\"with,comma\",\"with\"\"quote\"");
  EXPECT_EQ(line2, "1.5,-2,3");
  std::filesystem::remove(path);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallback) {
  std::vector<int> hits(3, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; }, 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroIterations) {
  parallel_for(0, [](std::size_t) { FAIL(); }, 4);
}

TEST(EnvConfig, IntAndDoubleParsing) {
  ::setenv("CVSAFE_TEST_INT", "42", 1);
  ::setenv("CVSAFE_TEST_DBL", "2.5", 1);
  ::setenv("CVSAFE_TEST_BAD", "xyz", 1);
  EXPECT_EQ(env_int("CVSAFE_TEST_INT", 7), 42);
  EXPECT_EQ(env_double("CVSAFE_TEST_DBL", 7.0), 2.5);
  EXPECT_EQ(env_int("CVSAFE_TEST_BAD", 7), 7);
  EXPECT_EQ(env_int("CVSAFE_TEST_UNSET_123", 7), 7);
  EXPECT_FALSE(env_string("CVSAFE_TEST_UNSET_123").has_value());
  ::unsetenv("CVSAFE_TEST_INT");
  ::unsetenv("CVSAFE_TEST_DBL");
  ::unsetenv("CVSAFE_TEST_BAD");
}

TEST(Printing, IntervalAndSetFormat) {
  std::ostringstream os;
  os << Interval{1.0, 2.0} << ' ' << Interval::empty_interval() << ' '
     << IntervalSet{{0.0, 1.0}, {3.0, 4.0}} << ' ' << IntervalSet{};
  EXPECT_EQ(os.str(), "[1, 2] [empty] {[0, 1] u [3, 4]} {}");
}

TEST(Printing, LinalgFormat) {
  std::ostringstream os;
  os << Vec2{1.0, 2.0} << ' ' << Mat2::identity();
  EXPECT_EQ(os.str(), "(1, 2) [[1, 0], [0, 1]]");
}

TEST(EnvConfig, BenchSims) {
  ::setenv("CVSAFE_SIMS", "123", 1);
  EXPECT_EQ(bench_sims(10), 123u);
  ::setenv("CVSAFE_SIMS", "-5", 1);
  EXPECT_EQ(bench_sims(10), 10u);
  ::unsetenv("CVSAFE_SIMS");
  EXPECT_EQ(bench_sims(10), 10u);
}

}  // namespace
}  // namespace cvsafe::util

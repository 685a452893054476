#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/union_find.hpp"
#include "util/table.hpp"

namespace pathsep::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32 / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentile, EmptyReturnsZero) { EXPECT_EQ(percentile({}, 0.5), 0.0); }

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 0.5), 2.0);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, Interpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(LinearFitTest, PerfectLine) {
  std::vector<double> x{1, 2, 3, 4}, y{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFitTest, DegenerateInputs) {
  EXPECT_EQ(fit_linear({1}, {2}).slope, 0.0);
  EXPECT_EQ(fit_linear({1, 1}, {2, 5}).slope, 0.0);  // vertical: no fit
}

TEST(FormatCount, Scales) {
  EXPECT_EQ(format_count(12), "12");
  EXPECT_EQ(format_count(1500), "1.50k");
  EXPECT_EQ(format_count(2.5e6), "2.50M");
  EXPECT_EQ(format_count(3e9), "3.00G");
}

TEST(Table, AlignsAndCountsRows) {
  TableWriter t({"name", "n"});
  t.add_row({"grid", "1024"});
  t.add_row({"tree", "7"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("grid"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
  // Numeric cells are right-aligned: "   7" ends its line.
  EXPECT_NE(text.find("   7"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  TableWriter t({"a", "b"});
  t.add_row({"x,y", "plain"});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  TableWriter t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.to_text().find("only"), std::string::npos);
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(strf("%s", ""), "");
}

TEST(ArgsTest, ParsesBothFlagForms) {
  // A bare token after "--eps" binds as its value; "file" after "--n=32"
  // stays positional; a trailing bare flag is boolean.
  const char* argv[] = {"prog", "--n=32", "file", "--eps", "0.5", "--verbose"};
  Args args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 32);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0), 0.5);
  EXPECT_TRUE(args.get_bool("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file");
}

TEST(ArgsTest, DefaultsAndUnused) {
  const char* argv[] = {"prog", "--typo=1"};
  Args args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 99), 99);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgsTest, RejectUnusedNamesTheFirstUnreadFlag) {
  const char* argv[] = {"prog", "--n=5", "--epss=0.9"};
  Args args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 5);
  try {
    args.reject_unused("prog");
    FAIL() << "an unread flag must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--epss is not a prog flag");
  }
  // Once every flag is read there is nothing to reject.
  EXPECT_DOUBLE_EQ(args.get_double("epss", 0), 0.9);
  EXPECT_NO_THROW(args.reject_unused("prog"));
}

TEST(ArgsTest, RejectsMalformedAndOutOfRangeNumbers) {
  const char* argv[] = {"prog",      "--empty=",  "--cache=abc",
                        "--n=12x",   "--neg=-1",  "--big=99999999999999999999",
                        "--eps=0.5x", "--serve"};
  Args args(8, const_cast<char**>(argv));
  EXPECT_THROW(args.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("eps", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("serve", 0), std::invalid_argument);  // "true"
  EXPECT_EQ(args.get_int("neg", 0), -1);
  EXPECT_THROW(args.get_int("neg", 0, 0, 10), std::invalid_argument);
  EXPECT_EQ(args.get_int("missing", 7, 0, 10), 7);  // defaults skip bounds
  try {
    args.get_int("cache", 0);
    ADD_FAILURE() << "--cache=abc parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--cache"), std::string::npos)
        << e.what();
  }
}

TEST(UnionFindTest, BasicMergeAndQuery) {
  UnionFind uf(6);
  EXPECT_EQ(uf.num_elements(), 6u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // already joined
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  EXPECT_EQ(uf.size_of(1), 3u);
  EXPECT_EQ(uf.size_of(5), 1u);
}

TEST(UnionFindTest, SpanningTreeCountsComponents) {
  UnionFind uf(10);
  std::size_t merges = 0;
  for (std::size_t i = 0; i + 2 < 10; i += 2) merges += uf.unite(i, i + 2);
  // Even chain 0-2-4-6-8 merged; odds untouched.
  EXPECT_EQ(merges, 4u);
  EXPECT_EQ(uf.size_of(0), 5u);
  EXPECT_TRUE(uf.connected(0, 8));
  EXPECT_FALSE(uf.connected(0, 1));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  for (auto& h : hits) h = 0;
  parallel_for(500, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbackAndEmptyRange) {
  int count = 0;
  parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  // Budget 1: no pool workers, so the body runs inline on this thread and
  // the unsynchronized count is safe.
  const std::size_t saved = threads();
  set_threads(1);
  parallel_for(3, [&](std::size_t) { ++count; });
  set_threads(saved);
  EXPECT_EQ(count, 3);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(64,
                            [](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ArgsTest, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  Args args(5, const_cast<char**>(argv));
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

}  // namespace
}  // namespace pathsep::util

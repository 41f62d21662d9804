// Unit tests for the util toolkit: rng, stats, strings, csv, alias, tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "util/alias.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_annotations.hpp"

namespace dosn::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Mix64, ThreeWayMixIsNestedAndCollisionResistant) {
  EXPECT_EQ(mix64(1, 2, 3), mix64(mix64(1, 2), 3));
  // Argument order matters (no commutative aliasing).
  EXPECT_NE(mix64(1, 2, 3), mix64(3, 2, 1));
  EXPECT_NE(mix64(1, 2, 3), mix64(2, 1, 3));
  // Small-coordinate triples that alias under additive schemes do not.
  EXPECT_NE(mix64(0, 1, 0), mix64(0, 0, 131));
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(3);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.below(10)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
}

TEST(Rng, ParetoMeanMatchesTheory) {
  Rng rng(17);
  RunningStats s;
  // alpha=3 keeps the variance finite so the empirical mean converges.
  for (int i = 0; i < 200000; ++i) s.add(rng.pareto(1.0, 3.0));
  EXPECT_NEAR(s.mean(), 1.5, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(23);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto s = rng.sample_indices(100, k);
    EXPECT_EQ(s.size(), k);
    std::sort(s.begin(), s.end());
    EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
    for (auto i : s) EXPECT_LT(i, 100u);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // Child stream differs from the parent continuation.
  Rng b(5);
  b.fork();
  EXPECT_NE(child(), a());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(ZipfTable, FirstRankMostLikely) {
  Rng rng(31);
  ZipfTable table(10, 1.0);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 50000; ++i) ++counts[table.draw(rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], 0);
}

TEST(ZipfTable, SingleElement) {
  Rng rng(37);
  ZipfTable table(1, 1.5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.draw(rng), 1u);
}

TEST(Mix64, SensitiveToBothArguments) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(0, 0), mix64(0, 1));
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(41);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(Percentile, OrderStatistics) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.5);
}

TEST(Percentile, RejectsEmptyAndBadRank) {
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile({}, 0.5), ConfigError);
  EXPECT_THROW(percentile(v, 1.5), ConfigError);
}

TEST(Histogram, ClampsOutliers) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(3.0);
  h.add(100.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(AverageSeries, ElementwiseMean) {
  const auto avg = average_series({{1, 2, 3}, {3, 4, 5}});
  EXPECT_EQ(avg, (std::vector<double>{2, 3, 4}));
}

TEST(AverageSeries, RejectsShapeMismatch) {
  EXPECT_THROW(average_series({{1, 2}, {1, 2, 3}}), ConfigError);
  EXPECT_THROW(average_series({}), ConfigError);
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto f = split("a,,b,", ',');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

TEST(Strings, SplitWsDropsRuns) {
  const auto f = split_ws("  a \t b\t\tc  ");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, ParseI64Strict) {
  EXPECT_EQ(parse_i64("-42"), -42);
  EXPECT_THROW(parse_i64("42x"), ParseError);
  EXPECT_THROW(parse_i64(""), ParseError);
  EXPECT_THROW(parse_i64("4 2"), ParseError);
}

TEST(Strings, ParseF64Strict) {
  EXPECT_DOUBLE_EQ(parse_f64("2.5"), 2.5);
  EXPECT_THROW(parse_f64("abc"), ParseError);
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format_duration_s(7200.0), "2.0 h");
  EXPECT_EQ(format_duration_s(120.0), "2.0 min");
  EXPECT_EQ(format_duration_s(30.0), "30 s");
}

/// A temp-file path unique to the running test case: ctest -j runs each
/// case as its own process, so a fixed name would race across cases.
std::string test_temp_path(const std::string& suffix) {
  return testing::TempDir() + "/dosn_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = test_temp_path(".csv");
  {
    CsvWriter csv(path);
    csv.header(std::vector<std::string>{"a", "b"});
    csv.row(std::vector<double>{1.0, 2.5});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::filesystem::remove(path);
}

TEST(Csv, QuotesSpecialFields) {
  const std::string path = test_temp_path(".csv");
  {
    CsvWriter csv(path);
    csv.raw_row(std::vector<std::string>{"plain", "a,b", "say \"hi\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"a,b\",\"say \"\"hi\"\"\"");
  std::filesystem::remove(path);
}

TEST(Csv, SeriesSharedAxis) {
  const std::string path = test_temp_path(".csv");
  std::vector<Series> series{{"s1", {0, 1}, {5, 6}}, {"s2", {0, 1}, {7, 8}}};
  write_series_csv(path, "k", series);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,s1,s2");
  std::getline(in, line);
  EXPECT_EQ(line, "0,5,7");
  std::filesystem::remove(path);
}

TEST(Csv, SeriesRejectsMismatchedAxes) {
  std::vector<Series> series{{"s1", {0, 1}, {5, 6}}, {"s2", {0, 2}, {7, 8}}};
  EXPECT_THROW(write_series_csv(test_temp_path(".csv"), "k", series),
               ConfigError);
}

TEST(DiscreteSampler, RespectsWeights) {
  Rng rng(43);
  std::vector<double> w{1.0, 0.0, 3.0};
  DiscreteSampler sampler(w);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[sampler.draw(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(DiscreteSampler, RejectsDegenerateInput) {
  std::vector<double> zero{0.0, 0.0};
  std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(DiscreteSampler(std::span<const double>{}), ConfigError);
  EXPECT_THROW(DiscreteSampler{zero}, ConfigError);
  EXPECT_THROW(DiscreteSampler{negative}, ConfigError);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row("long-label", {2.5});
  const auto s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-label"), std::string::npos);
  EXPECT_NE(s.find("2.500"), std::string::npos);
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  std::vector<Series> series{{"up", {0, 1, 2}, {0.0, 0.5, 1.0}}};
  ChartOptions opt;
  opt.title = "test-chart";
  opt.y_max = 1.0;
  const auto s = render_chart(series, opt);
  EXPECT_NE(s.find("test-chart"), std::string::npos);
  EXPECT_NE(s.find("legend:"), std::string::npos);
  EXPECT_NE(s.find("up"), std::string::npos);
}

TEST(AsciiChart, LogXRequiresPositive) {
  std::vector<Series> series{{"s", {0, 1}, {0, 1}}};
  ChartOptions opt;
  opt.log_x = true;
  EXPECT_THROW(render_chart(series, opt), ConfigError);
}

TEST(Logging, LevelGateAndRestore) {
  const auto previous = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // Below-threshold calls are no-ops; above-threshold calls must not
  // throw. (Output goes to stderr; we only check control flow.)
  EXPECT_NO_THROW(log_debug("suppressed"));
  EXPECT_NO_THROW(log_error("emitted"));
  set_log_level(LogLevel::kOff);
  EXPECT_NO_THROW(log_error("suppressed too"));
  set_log_level(previous);
}

TEST(Error, AssertMacroThrowsLogicError) {
  EXPECT_THROW(DOSN_ASSERT(1 == 2), std::logic_error);
  EXPECT_NO_THROW(DOSN_ASSERT(1 == 1));
}

TEST(Error, RequireThrowsConfigError) {
  EXPECT_THROW(DOSN_REQUIRE(false, "bad config"), ConfigError);
}

// MutexLock must behave exactly like std::lock_guard over util::Mutex —
// the annotation layer changes what Clang can prove, never the locking.

TEST(MutexLock, MutualExclusionUnderContention) {
  Mutex mutex;
  long value = 0;
  auto worker = [&] {
    for (int i = 0; i < 20000; ++i) {
      MutexLock lock(mutex);
      ++value;
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_EQ(value, 40000);
}

TEST(MutexLock, EarlyUnlockReleasesAndRelockReacquires) {
  Mutex mutex;
  MutexLock lock(mutex);
  lock.unlock();
  {
    // Another thread can now take the mutex (same thread would deadlock
    // on std::mutex, so probe from a helper).
    bool acquired = false;
    std::thread probe([&] {
      acquired = mutex.try_lock();
      if (acquired) mutex.unlock();
    });
    probe.join();
    EXPECT_TRUE(acquired);
  }
  lock.lock();  // re-acquire so the destructor's release is balanced
  bool acquired_while_held = true;
  std::thread probe([&] {
    acquired_while_held = mutex.try_lock();
    if (acquired_while_held) mutex.unlock();
  });
  probe.join();
  EXPECT_FALSE(acquired_while_held);
}

TEST(MutexLock, DestructorReleases) {
  Mutex mutex;
  {
    MutexLock lock(mutex);
  }
  bool acquired = false;
  std::thread probe([&] {
    acquired = mutex.try_lock();
    if (acquired) mutex.unlock();
  });
  probe.join();
  EXPECT_TRUE(acquired);
}

TEST(CondVar, WaitsDirectlyOnMutexLock) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(mutex);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mutex);
    while (!ready) cv.wait(lock);
  }
  signaller.join();
  EXPECT_TRUE(ready);
}

}  // namespace
}  // namespace dosn::util

// Unit tests for latency statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "util/stats.h"

namespace crsm {
namespace {

TEST(LatencyStats, EmptyIsSafe) {
  LatencyStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 0.0);
  EXPECT_TRUE(s.cdf().empty());
}

TEST(LatencyStats, MeanMinMax) {
  LatencyStats s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(LatencyStats, PercentileNearestRank) {
  LatencyStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 1.0);
}

TEST(LatencyStats, PercentileSingleSample) {
  LatencyStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 42.0);
}

TEST(LatencyStats, PercentileOutOfRangeThrows) {
  LatencyStats s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
}

TEST(LatencyStats, PercentilesAreMonotone) {
  LatencyStats s;
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> dist(0.0, 500.0);
  for (int i = 0; i < 1000; ++i) s.add(dist(gen));
  double prev = 0.0;
  for (double p = 0; p <= 100; p += 5) {
    const double v = s.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LatencyStats, CdfIsMonotoneAndEndsAtOne) {
  LatencyStats s;
  std::mt19937 gen(3);
  std::uniform_real_distribution<double> dist(10.0, 20.0);
  for (int i = 0; i < 777; ++i) s.add(dist(gen));
  const auto cdf = s.cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().first, s.max());
}

TEST(LatencyStats, MergeCombinesSamples) {
  LatencyStats a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(LatencyStats, DegradesPastCapWithBoundedError) {
  LatencyStats s(100);  // tiny cap to force histogram mode
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_FALSE(s.exact());
  EXPECT_TRUE(s.samples().empty());
  EXPECT_EQ(s.count(), 1000u);
  // Moments stay exact across the degradation.
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  // Percentiles answer from the log-scale histogram: <= 6.25 % relative err.
  EXPECT_NEAR(s.percentile(50), 500.0, 500.0 * 0.0625);
  EXPECT_NEAR(s.percentile(95), 950.0, 950.0 * 0.0625);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 1000.0);
}

TEST(LatencyStats, DegradedCdfIsMonotoneAndEndsAtMax) {
  LatencyStats s(50);
  std::mt19937 gen(11);
  std::uniform_real_distribution<double> dist(10.0, 20.0);
  for (int i = 0; i < 500; ++i) s.add(dist(gen));
  ASSERT_FALSE(s.exact());
  const auto cdf = s.cdf(40);
  ASSERT_EQ(cdf.size(), 40u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().first, s.max());
}

TEST(LatencyStats, MergeAcrossRegimes) {
  LatencyStats degraded(10);
  for (int i = 0; i < 100; ++i) degraded.add(5.0);
  ASSERT_FALSE(degraded.exact());

  LatencyStats exact;
  exact.add(1.0);
  exact.add(9.0);

  // exact <- degraded: the exact side must give up its sample vector.
  LatencyStats a = exact;
  a.merge(degraded);
  EXPECT_FALSE(a.exact());
  EXPECT_EQ(a.count(), 102u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);

  // degraded <- exact: samples fold into the histogram.
  LatencyStats b = degraded;
  b.merge(exact);
  EXPECT_EQ(b.count(), 102u);
  EXPECT_NEAR(b.percentile(50), 5.0, 5.0 * 0.0625);
}

TEST(LatencyStats, CopyOfDegradedIsIndependent) {
  LatencyStats s(10);
  for (int i = 0; i < 50; ++i) s.add(2.0);
  LatencyStats copy = s;
  copy.add(2.0);
  EXPECT_EQ(s.count(), 50u);
  EXPECT_EQ(copy.count(), 51u);
  EXPECT_NEAR(copy.percentile(99), 2.0, 2.0 * 0.0625);
}

TEST(PaperMedian, OddSet) {
  // {0, 10, 20}: index 1 -> 10.
  EXPECT_DOUBLE_EQ(paper_median({20.0, 0.0, 10.0}), 10.0);
}

TEST(PaperMedian, MajoritySemantics) {
  // Five replicas incl. self (0): a majority of 3 needs the 2 nearest
  // others; the paper's median picks exactly the 2nd nearest other.
  EXPECT_DOUBLE_EQ(paper_median({0.0, 41.5, 62.5, 85.5, 85.0}), 62.5);
  // Four replicas: majority of 3 -> index 2.
  EXPECT_DOUBLE_EQ(paper_median({0.0, 10.0, 30.0, 50.0}), 30.0);
}

TEST(PaperMedian, EmptyThrows) {
  EXPECT_THROW((void)paper_median({}), std::invalid_argument);
}

TEST(MeanMax, Helpers) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(max_of({1.0, 5.0, 3.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(max_of({}), 0.0);
}

}  // namespace
}  // namespace crsm

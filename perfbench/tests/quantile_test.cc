#include "quantile.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(NearestRankTest, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(NearestRank({}, 50)));
}

TEST(NearestRankTest, SingleSampleIsEveryPercentile) {
  EXPECT_EQ(NearestRank({7.0}, 1), 7.0);
  EXPECT_EQ(NearestRank({7.0}, 50), 7.0);
  EXPECT_EQ(NearestRank({7.0}, 100), 7.0);
}

TEST(NearestRankTest, TenSamplesUseExactRanks) {
  // 0.9 * 10 rounds up to 10 in floating point; the rank must be 9.
  std::vector<double> samples = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(NearestRank(samples, 50), 5.0);
  EXPECT_EQ(NearestRank(samples, 90), 9.0);
  EXPECT_EQ(NearestRank(samples, 91), 10.0);
  EXPECT_EQ(NearestRank(samples, 100), 10.0);
  EXPECT_EQ(NearestRank(samples, 10), 1.0);
}

TEST(NearestRankTest, MatchesSortedSamplesOnSkewedData) {
  // A heavy tail, the shape that made bucketed p95 == p99 == max.
  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) samples.push_back(i <= 190 ? i : 1000.0 + i);
  EXPECT_EQ(NearestRank(samples, 50), 100.0);
  EXPECT_EQ(NearestRank(samples, 95), 190.0);
  EXPECT_EQ(NearestRank(samples, 99), 1198.0);
  EXPECT_EQ(NearestRank(samples, 100), 1200.0);
}

TEST(NearestRankTest, ValueIsAlwaysASample) {
  std::vector<double> samples = {0.25, 0.5, 0.125};
  for (int p = 1; p <= 100; ++p) {
    const double v = NearestRank(samples, p);
    EXPECT_TRUE(v == 0.25 || v == 0.5 || v == 0.125) << p;
  }
}

TEST(SummarizeTest, ReportsCountMedianAndP90) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const Quantiles q = Summarize(samples);
  EXPECT_EQ(q.n, 100u);
  EXPECT_EQ(q.p50, 50.0);
  EXPECT_EQ(q.p90, 90.0);
}

}  // namespace
}  // namespace perfbench

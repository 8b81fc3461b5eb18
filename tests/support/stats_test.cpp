//===- tests/support/stats_test.cpp - Latency statistics ------------------===//

#include "support/Stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace repro {
namespace {

TEST(QuantileTest, EmptyIsZero) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_EQ(quantile({7.0}, 0.0), 7.0);
  EXPECT_EQ(quantile({7.0}, 0.95), 7.0);
}

TEST(QuantileTest, MedianOfOddSet) {
  EXPECT_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  // Sorted: 0, 10. q=0.25 → 2.5.
  EXPECT_DOUBLE_EQ(quantile({10.0, 0.0}, 0.25), 2.5);
}

TEST(QuantileTest, ExtremesAreMinAndMax) {
  std::vector<double> V{5, 9, 1, 4};
  EXPECT_EQ(quantile(V, 0.0), 1.0);
  EXPECT_EQ(quantile(V, 1.0), 9.0);
}

TEST(SummarizeTest, BasicMoments) {
  LatencySummary S = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(S.Count, 5u);
  EXPECT_DOUBLE_EQ(S.Mean, 3.0);
  EXPECT_EQ(S.Min, 1.0);
  EXPECT_EQ(S.Max, 5.0);
  EXPECT_DOUBLE_EQ(S.P50, 3.0);
  EXPECT_NEAR(S.StdDev, std::sqrt(2.0), 1e-12);
}

TEST(SummarizeTest, P95OfUniformRamp) {
  std::vector<double> V;
  for (int I = 0; I <= 100; ++I)
    V.push_back(I);
  LatencySummary S = summarize(V);
  EXPECT_NEAR(S.P95, 95.0, 1e-9);
  EXPECT_NEAR(S.P99, 99.0, 1e-9);
}

TEST(SummarizeTest, EmptySummaryIsZeroed) {
  LatencySummary S = summarize({});
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.Mean, 0.0);
}

TEST(ToStringTest, MentionsCountAndPercentiles) {
  LatencySummary S = summarize({1, 2, 3});
  std::string Str = toString(S);
  EXPECT_NE(Str.find("n=3"), std::string::npos);
  EXPECT_NE(Str.find("p95"), std::string::npos);
}

} // namespace
} // namespace repro

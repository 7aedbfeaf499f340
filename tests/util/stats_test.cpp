#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

namespace mgq::util {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(PercentileTest, EmptyIsNaN) {
  // An empty sample has no percentile; a silent 0.0 used to masquerade as
  // a real measurement in bench summaries.
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
  EXPECT_TRUE(std::isnan(percentile({}, 0)));
  EXPECT_TRUE(std::isnan(percentile({}, 100)));
}

TEST(PercentileTest, MedianAndExtremes) {
  const std::array<double, 5> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(PercentileTest, Interpolates) {
  const std::array<double, 2> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
}

TEST(PercentileTest, ClampsOutOfRangeP) {
  const std::array<double, 3> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 200), 3.0);
}

TEST(MeanTest, Basic) {
  const std::array<double, 4> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(CoefficientOfVariationTest, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(coefficientOfVariation({})));
}

TEST(CoefficientOfVariationTest, ZeroMeanGivesZero) {
  const std::array<double, 2> v{-1, 1};
  EXPECT_DOUBLE_EQ(coefficientOfVariation(v), 0.0);
}

TEST(CoefficientOfVariationTest, ConstantSeriesIsZero) {
  const std::array<double, 3> v{4, 4, 4};
  EXPECT_DOUBLE_EQ(coefficientOfVariation(v), 0.0);
}

TEST(WeightedPercentileTest, DegenerateInputsAreNaN) {
  const std::vector<double> two{1.0, 2.0};
  const std::vector<double> one{1.0};
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_TRUE(std::isnan(weightedPercentile({}, {}, 50)));
  // Size mismatch.
  EXPECT_TRUE(std::isnan(weightedPercentile(two, one, 50)));
  // Non-positive total weight.
  EXPECT_TRUE(std::isnan(weightedPercentile(two, zeros, 50)));
}

TEST(WeightedPercentileTest, UniformWeightsMatchNearestRank) {
  const std::vector<double> v{5, 1, 3, 2, 4};
  const std::vector<double> w{1, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, 0), 1.0);
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, 50), 3.0);
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, 100), 5.0);
}

TEST(WeightedPercentileTest, WeightShiftsTheMedian) {
  // 10 carries 8x the weight of the other values, so it dominates the
  // upper percentiles and the median.
  const std::vector<double> v{1, 2, 10};
  const std::vector<double> w{1, 1, 8};
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, 50), 10.0);
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, 10), 1.0);
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, 15), 2.0);
}

TEST(WeightedPercentileTest, ClampsOutOfRangeP) {
  const std::vector<double> v{1, 2, 3};
  const std::vector<double> w{1, 1, 1};
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, -5), 1.0);
  EXPECT_DOUBLE_EQ(weightedPercentile(v, w, 200), 3.0);
}

}  // namespace
}  // namespace mgq::util

#include "tsmath/seasonal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "tsmath/random.h"
#include "tsmath/stats.h"

namespace litmus::ts {
namespace {

std::vector<double> seasonal_signal(std::size_t n, std::size_t period,
                                    double amplitude, double trend,
                                    double noise_sigma, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = amplitude * std::sin(2.0 * std::numbers::pi *
                                static_cast<double>(i % period) / period) +
           trend * static_cast<double>(i) + rng.normal(0.0, noise_sigma);
  return v;
}

TEST(MovingAverage, SmoothsConstant) {
  const std::vector<double> v(20, 3.0);
  const std::vector<double> m = moving_average(v, 5);
  EXPECT_TRUE(is_missing(m[0]));
  EXPECT_TRUE(is_missing(m[1]));
  for (std::size_t i = 2; i + 2 < v.size(); ++i)
    EXPECT_DOUBLE_EQ(m[i], 3.0);
}

TEST(MovingAverage, EvenWindowRejected) {
  const std::vector<double> v(10, 1.0);
  const std::vector<double> m = moving_average(v, 4);
  for (double x : m) EXPECT_TRUE(is_missing(x));
}

TEST(MovingAverage, ToleratesSomeMissing) {
  std::vector<double> v(11, 2.0);
  v[5] = kMissing;
  const std::vector<double> m = moving_average(v, 5);
  EXPECT_DOUBLE_EQ(m[5], 2.0);  // 4 of 5 observed is enough
}

TEST(SeasonalMeans, RecoversPhasePattern) {
  std::vector<double> v;
  for (int rep = 0; rep < 10; ++rep)
    for (double phase : {1.0, 2.0, 3.0}) v.push_back(phase);
  const std::vector<double> means = seasonal_means(v, 3);
  EXPECT_DOUBLE_EQ(means[0], 1.0);
  EXPECT_DOUBLE_EQ(means[1], 2.0);
  EXPECT_DOUBLE_EQ(means[2], 3.0);
}

TEST(SeasonalMeans, MissingPhaseIsMissing) {
  const std::vector<double> v{1.0, kMissing, 1.0, kMissing};
  const std::vector<double> means = seasonal_means(v, 2);
  EXPECT_DOUBLE_EQ(means[0], 1.0);
  EXPECT_TRUE(is_missing(means[1]));
}

TEST(Decompose, ReconstructsSignal) {
  const std::vector<double> v =
      seasonal_signal(240, 24, 2.0, 0.01, 0.0, 31);
  const Decomposition d = decompose_additive(v, 24);
  for (std::size_t i = 30; i < 210; ++i) {
    if (is_missing(d.trend[i])) continue;
    EXPECT_NEAR(d.trend[i] + d.seasonal[i] + d.remainder[i], v[i], 1e-9);
  }
}

TEST(Decompose, SeasonalComponentSumsToZero) {
  const std::vector<double> v =
      seasonal_signal(240, 24, 2.0, 0.0, 0.3, 32);
  const Decomposition d = decompose_additive(v, 24);
  double sum = 0;
  for (std::size_t p = 0; p < 24; ++p) sum += d.seasonal[p];
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(SeasonalStrength, HighForPeriodicSignal) {
  const std::vector<double> v =
      seasonal_signal(480, 24, 3.0, 0.0, 0.3, 33);
  EXPECT_GT(seasonal_strength(v, 24), 0.9);
}

TEST(SeasonalStrength, LowForWhiteNoise) {
  Rng rng(34);
  std::vector<double> v(480);
  for (auto& x : v) x = rng.normal();
  EXPECT_LT(seasonal_strength(v, 24), 0.25);
}

TEST(TrendSlope, RecoversLinearTrend) {
  std::vector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 5.0 + 0.25 * static_cast<double>(i);
  EXPECT_NEAR(linear_trend_slope(v), 0.25, 1e-12);
}

TEST(TrendSlope, MissingAware) {
  std::vector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 2.0 * static_cast<double>(i);
  v[10] = kMissing;
  v[50] = kMissing;
  EXPECT_NEAR(linear_trend_slope(v), 2.0, 1e-9);
}

TEST(TrendSlope, DegenerateInputs) {
  EXPECT_TRUE(is_missing(linear_trend_slope(std::vector<double>{1.0})));
  EXPECT_TRUE(is_missing(linear_trend_slope(std::vector<double>{})));
}

}  // namespace
}  // namespace litmus::ts

#include "tsmath/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tsmath/random.h"

namespace litmus::ts {
namespace {

TEST(Stats, MeanBasic) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, MeanSkipsMissing) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, kMissing, 3.0}), 2.0);
}

TEST(Stats, MeanOfEmptyIsMissing) {
  EXPECT_TRUE(is_missing(mean(std::vector<double>{})));
  EXPECT_TRUE(is_missing(mean(std::vector<double>{kMissing})));
}

TEST(Stats, VarianceUnbiased) {
  // Sample variance of {1,2,3,4} = 5/3.
  EXPECT_NEAR(variance(std::vector<double>{1, 2, 3, 4}), 5.0 / 3.0, 1e-12);
}

TEST(Stats, VarianceNeedsTwoPoints) {
  EXPECT_TRUE(is_missing(variance(std::vector<double>{5.0})));
}

TEST(Stats, StddevIsRootOfVariance) {
  const std::vector<double> v{2.0, 4.0, 6.0};
  EXPECT_NEAR(stddev(v), std::sqrt(variance(v)), 1e-12);
}

TEST(Stats, MinMaxSkipMissing) {
  const std::vector<double> v{kMissing, 3.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 1.5);
  EXPECT_NEAR(quantile(v, 0.25), 0.75, 1e-12);
}

TEST(Stats, QuantileUnsorted) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{9.0, 1.0, 5.0}), 5.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1, 2, 3, 4}), 2.5);
}

TEST(Stats, MadOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(mad(std::vector<double>{5, 5, 5, 5}), 0.0);
}

TEST(Stats, MadEstimatesGaussianSigma) {
  Rng rng(42);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mad(v), 2.0, 0.1);
}

TEST(Stats, MadIgnoresOutliers) {
  std::vector<double> v{1, 2, 3, 4, 5, 1000.0};
  EXPECT_LT(mad(v), 5.0);
  EXPECT_GT(stddev(v), 100.0);  // the non-robust scale explodes
}

TEST(Stats, CovarianceOfIndependentNearZero) {
  Rng rng(7);
  std::vector<double> x(5000), y(5000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(covariance(x, y), 0.0, 0.06);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsMissing) {
  EXPECT_TRUE(is_missing(
      pearson(std::vector<double>{1, 1, 1}, std::vector<double>{1, 2, 3})));
}

TEST(Stats, PearsonPairwiseComplete) {
  const std::vector<double> x{1, kMissing, 3, 4};
  const std::vector<double> y{2, 100.0, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, AutocorrelationLagZeroIsOne) {
  EXPECT_DOUBLE_EQ(autocorrelation(std::vector<double>{1, 2, 3}, 0), 1.0);
}

TEST(Stats, AutocorrelationOfAr1MatchesRho) {
  Rng rng(11);
  const double rho = 0.7;
  std::vector<double> v(20000);
  double state = 0;
  for (auto& x : v) {
    state = rho * state + rng.normal() * std::sqrt(1 - rho * rho);
    x = state;
  }
  EXPECT_NEAR(autocorrelation(v, 1), rho, 0.03);
}

TEST(Stats, AutocorrelationTooShortIsMissing) {
  EXPECT_TRUE(is_missing(autocorrelation(std::vector<double>{1.0, 2.0}, 5)));
}

TEST(Stats, SummaryFields) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0, kMissing};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, SummaryOfEmpty) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.n, 0u);
  EXPECT_TRUE(is_missing(s.mean));
}

// Property sweep: quantile is monotone in q and bounded by min/max.
class QuantileProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantileProperty, MonotoneAndBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v(200);
  for (auto& x : v) x = rng.uniform(-10.0, 10.0);
  double prev = quantile(v, 0.0);
  EXPECT_DOUBLE_EQ(prev, min_value(v));
  for (double q = 0.1; q <= 1.0001; q += 0.1) {
    const double cur = quantile(v, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), max_value(v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property sweep: mean/median/mad invariance under shift, scaling under
// positive scale.
class AffineProperty : public ::testing::TestWithParam<int> {};

TEST_P(AffineProperty, ShiftAndScale) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v(300);
  for (auto& x : v) x = rng.normal(0.0, 3.0);
  const double a = rng.uniform(0.5, 4.0);
  const double b = rng.uniform(-20.0, 20.0);
  std::vector<double> w = v;
  for (auto& x : w) x = a * x + b;
  EXPECT_NEAR(mean(w), a * mean(v) + b, 1e-9);
  EXPECT_NEAR(median(w), a * median(v) + b, 1e-9);
  EXPECT_NEAR(mad(w), a * mad(v), 1e-9);
  EXPECT_NEAR(stddev(w), a * stddev(v), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace litmus::ts

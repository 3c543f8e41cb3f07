#include "tsmath/linreg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "tsmath/random.h"
#include "tsmath/timeseries.h"

namespace litmus::ts {
namespace {

Matrix random_design(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix x(rows, cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) x(r, c) = rng.normal();
  return x;
}

TEST(QrSolve, ExactSquareSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const std::vector<double> b{5.0, 10.0};
  const std::vector<double> x = qr_solve(a, b);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(QrSolve, OverdeterminedLeastSquares) {
  // y = 2x fitted to 3 points with symmetric perturbation: slope stays 2.
  Matrix a(3, 1);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  const std::vector<double> b{2.1, 4.0, 5.9};
  const std::vector<double> x = qr_solve(a, b);
  ASSERT_EQ(x.size(), 1u);
  EXPECT_NEAR(x[0], (2.1 + 8.0 + 17.7) / 14.0, 1e-10);
}

TEST(QrSolve, RankDeficientReturnsEmpty) {
  Matrix a(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    a(r, 0) = static_cast<double>(r + 1);
    a(r, 1) = 2.0 * static_cast<double>(r + 1);  // collinear column
  }
  EXPECT_TRUE(qr_solve(a, std::vector<double>{1, 2, 3}).empty());
}

TEST(QrSolve, UnderdeterminedReturnsEmpty) {
  Matrix a(1, 2, 1.0);
  EXPECT_TRUE(qr_solve(a, std::vector<double>{1.0}).empty());
}

TEST(QrSolve, SizeMismatchThrows) {
  Matrix a(2, 1, 1.0);
  EXPECT_THROW(qr_solve(a, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(FitOls, RecoversCoefficientsExactly) {
  Rng rng(20);
  Matrix x = random_design(rng, 60, 3);
  std::vector<double> y(60);
  for (std::size_t r = 0; r < 60; ++r)
    y[r] = 4.0 + 1.5 * x(r, 0) - 2.0 * x(r, 1) + 0.5 * x(r, 2);
  const LinearModel m = fit_ols(x, y, true);
  ASSERT_TRUE(m.ok);
  EXPECT_NEAR(m.intercept, 4.0, 1e-9);
  EXPECT_NEAR(m.coefficients[0], 1.5, 1e-9);
  EXPECT_NEAR(m.coefficients[1], -2.0, 1e-9);
  EXPECT_NEAR(m.coefficients[2], 0.5, 1e-9);
  EXPECT_NEAR(m.r_squared, 1.0, 1e-9);
  EXPECT_NEAR(m.residual_stddev, 0.0, 1e-8);
}

TEST(FitOls, WithoutInterceptForcesOrigin) {
  Rng rng(21);
  Matrix x = random_design(rng, 50, 1);
  std::vector<double> y(50);
  for (std::size_t r = 0; r < 50; ++r) y[r] = 3.0 * x(r, 0);
  const LinearModel m = fit_ols(x, y, false);
  ASSERT_TRUE(m.ok);
  EXPECT_FALSE(m.with_intercept == false && m.intercept != 0.0);
  EXPECT_NEAR(m.coefficients[0], 3.0, 1e-9);
}

TEST(FitOls, NoisyFitHasReasonableRSquared) {
  Rng rng(22);
  Matrix x = random_design(rng, 500, 2);
  std::vector<double> y(500);
  for (std::size_t r = 0; r < 500; ++r)
    y[r] = x(r, 0) + x(r, 1) + rng.normal(0.0, 0.5);
  const LinearModel m = fit_ols(x, y, true);
  ASSERT_TRUE(m.ok);
  // Signal var 2, noise var 0.25 -> R^2 ~ 0.89.
  EXPECT_NEAR(m.r_squared, 2.0 / 2.25, 0.04);
  EXPECT_NEAR(m.residual_stddev, 0.5, 0.06);
}

TEST(FitOls, DropsRowsWithMissingValues) {
  Rng rng(23);
  Matrix x = random_design(rng, 40, 1);
  std::vector<double> y(40);
  for (std::size_t r = 0; r < 40; ++r) y[r] = 2.0 * x(r, 0) + 1.0;
  // Poison some rows; the fit must still be exact on the rest.
  y[3] = kMissing;
  x(7, 0) = kMissing;
  const LinearModel m = fit_ols(x, y, true);
  ASSERT_TRUE(m.ok);
  EXPECT_NEAR(m.coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(m.intercept, 1.0, 1e-9);
}

TEST(FitOls, TooFewRowsNotOk) {
  Matrix x(4, 3, 1.0);
  const LinearModel m = fit_ols(x, std::vector<double>{1, 2, 3, 4}, true);
  EXPECT_FALSE(m.ok);
}

TEST(FitOls, CollinearDesignNotOk) {
  Rng rng(24);
  Matrix x(30, 2);
  for (std::size_t r = 0; r < 30; ++r) {
    x(r, 0) = rng.normal();
    x(r, 1) = 3.0 * x(r, 0);
  }
  std::vector<double> y(30);
  for (std::size_t r = 0; r < 30; ++r) y[r] = x(r, 0);
  EXPECT_FALSE(fit_ols(x, y, true).ok);
}

TEST(FitOls, RowCountMismatchThrows) {
  Matrix x(5, 1, 1.0);
  EXPECT_THROW(fit_ols(x, std::vector<double>{1.0, 2.0}, true),
               std::invalid_argument);
}

TEST(LinearModel, PredictRowAndMatrix) {
  LinearModel m;
  m.coefficients = {2.0, -1.0};
  m.intercept = 0.5;
  m.ok = true;
  EXPECT_DOUBLE_EQ(m.predict_row(std::vector<double>{1.0, 2.0}), 0.5);
  Matrix x(2, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 0;
  x(1, 1) = 0;
  const std::vector<std::size_t> all_columns{0, 1};
  std::vector<double> y(2);
  m.predict_columns_into(x, all_columns, y);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
  // The output must match the design's row count exactly.
  std::vector<double> short_out(1);
  EXPECT_THROW(m.predict_columns_into(x, all_columns, short_out),
               std::invalid_argument);
}

TEST(LinearModel, PredictRowMissingInputGivesMissing) {
  LinearModel m;
  m.coefficients = {1.0};
  EXPECT_TRUE(is_missing(m.predict_row(std::vector<double>{kMissing})));
}

TEST(LinearModel, PredictRowSizeMismatchThrows) {
  LinearModel m;
  m.coefficients = {1.0, 2.0};
  EXPECT_THROW(m.predict_row(std::vector<double>{1.0}),
               std::invalid_argument);
}

// Property: in-sample prediction through fit_ols never increases SSE vs the
// mean-only model (R^2 >= 0), across random problems.
class OlsProperty : public ::testing::TestWithParam<int> {};

TEST_P(OlsProperty, RSquaredNonNegativeAndBounded) {
  Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t cols = 1 + GetParam() % 4;
  Matrix x = random_design(rng, 80, cols);
  std::vector<double> y(80);
  for (auto& v : y) v = rng.normal();
  const LinearModel m = fit_ols(x, y, true);
  ASSERT_TRUE(m.ok);
  EXPECT_GE(m.r_squared, 0.0);
  EXPECT_LE(m.r_squared, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OlsProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace litmus::ts

#include "tsmath/gram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tsmath/linreg.h"
#include "tsmath/matrix.h"
#include "tsmath/random.h"
#include "tsmath/timeseries.h"

namespace litmus::ts {
namespace {

Matrix random_design(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r)
      m(r, c) = rng.normal(0.0, 1.0) + static_cast<double>(c);
  return m;
}

std::vector<double> make_response(const Matrix& x, std::uint64_t seed) {
  Rng rng(seed ^ 0xBEEF);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double v = 0.7;
    for (std::size_t c = 0; c < x.cols(); ++c)
      v += (0.3 + 0.1 * static_cast<double>(c)) * x(r, c);
    y[r] = v + rng.normal(0.0, 0.05);
  }
  return y;
}

TEST(GramPanel, MatchesQrOnCompletePanel) {
  const Matrix x = random_design(120, 8, 42);
  const std::vector<double> y = make_response(x, 42);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  EXPECT_EQ(panel.panel_rows(), 120u);
  EXPECT_EQ(panel.design_rows(), 120u);
  EXPECT_EQ(panel.cols(), 8u);
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, /*with_intercept=*/true));
  EXPECT_EQ(gram.rows(), 120u);

  GramScratch scratch;
  const std::vector<std::vector<std::size_t>> subsets = {
      {0, 1, 2, 3, 4, 5, 6, 7}, {0, 3, 7}, {2}, {1, 4, 5, 6}};
  for (const auto& cols : subsets) {
    ASSERT_TRUE(gram.subset_matches_panel(cols));
    LinearModel fast;
    ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
    const LinearModel slow = fit_ols(x.select_columns(cols), y);
    ASSERT_TRUE(slow.ok);
    ASSERT_EQ(fast.coefficients.size(), slow.coefficients.size());
    EXPECT_NEAR(fast.intercept, slow.intercept, 1e-9);
    for (std::size_t i = 0; i < cols.size(); ++i)
      EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
    EXPECT_NEAR(fast.r_squared, slow.r_squared, 1e-9);
    EXPECT_NEAR(fast.residual_stddev, slow.residual_stddev, 1e-9);
  }
}

TEST(GramPanel, MatchesQrWithoutIntercept) {
  const Matrix x = random_design(80, 5, 7);
  const std::vector<double> y = make_response(x, 7);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, /*with_intercept=*/false));

  GramScratch scratch;
  const std::vector<std::size_t> cols = {0, 2, 4};
  LinearModel fast;
  ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
  EXPECT_FALSE(fast.with_intercept);
  EXPECT_EQ(fast.intercept, 0.0);
  const LinearModel slow =
      fit_ols(x.select_columns(cols), y, /*with_intercept=*/false);
  ASSERT_TRUE(slow.ok);
  for (std::size_t i = 0; i < cols.size(); ++i)
    EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
  EXPECT_NEAR(fast.residual_stddev, slow.residual_stddev, 1e-9);
}

TEST(GramPanel, SubsetMatchingTracksPerColumnMissingness) {
  Matrix x = random_design(64, 4, 3);
  std::vector<double> y = make_response(x, 3);
  // Column 2 is missing at rows the others have, so any subset including
  // column 2 sees the panel row set, while subsets excluding it have MORE
  // complete rows than the panel — the fast path must refuse those.
  x(10, 2) = kMissing;
  x(33, 2) = kMissing;
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  EXPECT_EQ(panel.panel_rows(), 62u);
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));

  const std::vector<std::size_t> with2 = {0, 2, 3};
  const std::vector<std::size_t> without2 = {0, 1, 3};
  EXPECT_TRUE(gram.subset_matches_panel(with2));
  EXPECT_FALSE(gram.subset_matches_panel(without2));

  // The matching subset still agrees with QR to 1e-9: fit_ols drops the
  // same two rows.
  GramScratch scratch;
  LinearModel fast;
  ASSERT_TRUE(gram.solve_subset(with2, scratch, fast));
  const LinearModel slow = fit_ols(x.select_columns(with2), y);
  ASSERT_TRUE(slow.ok);
  for (std::size_t i = 0; i < with2.size(); ++i)
    EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
}

TEST(GramPanel, MissingResponseRowsReduceTheBoundSystem) {
  Matrix x = random_design(50, 3, 11);
  std::vector<double> y = make_response(x, 11);
  y[5] = kMissing;
  y[49] = kMissing;
  // The design-only panel keeps all 50 rows (y is not its business)...
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  EXPECT_EQ(panel.panel_rows(), 50u);
  // ...and the bound system drops the two y-missing rows, re-accumulating
  // a reduced Gram so subsets still reproduce QR exactly.
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));
  EXPECT_EQ(gram.rows(), 48u);
  const std::vector<std::size_t> cols = {0, 1, 2};
  EXPECT_TRUE(gram.subset_matches_panel(cols));
  GramScratch scratch;
  LinearModel fast;
  ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
  const LinearModel slow = fit_ols(x, y);
  ASSERT_TRUE(slow.ok);
  for (std::size_t i = 0; i < cols.size(); ++i)
    EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
}

TEST(GramPanel, OnePanelServesManyResponses) {
  // The sharing shape the panel cache exploits: bind E responses to one
  // design-only panel and check each against its own QR fit.
  const Matrix x = random_design(90, 6, 21);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramScratch scratch;
  const std::vector<std::size_t> cols = {0, 1, 3, 5};
  for (std::uint64_t e = 0; e < 4; ++e) {
    const std::vector<double> y = make_response(x, 100 + e);
    GramSystem gram;
    ASSERT_TRUE(gram.bind(panel, y, true));
    ASSERT_TRUE(gram.subset_matches_panel(cols));
    LinearModel fast;
    ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
    const LinearModel slow = fit_ols(x.select_columns(cols), y);
    ASSERT_TRUE(slow.ok);
    EXPECT_NEAR(fast.intercept, slow.intercept, 1e-9);
    for (std::size_t i = 0; i < cols.size(); ++i)
      EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
  }
}

TEST(GramPanel, RefusesSingularSubsets) {
  // Two identical columns: the sub-Gram is exactly singular, so the
  // Cholesky pivot check must bail out instead of returning garbage.
  Matrix x(40, 2);
  Rng rng(5);
  for (std::size_t r = 0; r < 40; ++r) {
    const double v = rng.normal();
    x(r, 0) = v;
    x(r, 1) = v;
  }
  std::vector<double> y(40);
  for (std::size_t r = 0; r < 40; ++r) y[r] = 2.0 * x(r, 0) + rng.normal();
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));
  GramScratch scratch;
  LinearModel out;
  const std::vector<std::size_t> both = {0, 1};
  EXPECT_FALSE(gram.solve_subset(both, scratch, out));
  EXPECT_FALSE(out.ok);
  // A single copy of the column is fine.
  const std::vector<std::size_t> one = {0};
  EXPECT_TRUE(gram.solve_subset(one, scratch, out));
  EXPECT_TRUE(out.ok);
  EXPECT_NEAR(out.coefficients[0], 2.0, 0.5);
}

TEST(GramPanel, SharedFactorSolvesBitForBitLikeSolveSubset) {
  // One panel factor per subset serves every response bound to the
  // panel: factor() then solve_factored() is solve_subset() split in two,
  // the same operations in the same order, so the bits agree, and a subset
  // the pivot refuses is refused by both. Columns 4 and 5 are identical.
  Matrix x = random_design(80, 6, 31);
  for (std::size_t r = 0; r < 80; ++r) x(r, 5) = x(r, 4);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  const std::vector<std::vector<std::size_t>> subsets = {
      {0, 1, 2, 3}, {1, 3, 4}, {2, 4, 5}, {0, 5}};
  std::size_t refused = 0;
  for (std::uint64_t e = 0; e < 3; ++e) {
    const std::vector<double> y = make_response(x, 200 + e);
    GramSystem gram;
    ASSERT_TRUE(gram.bind(panel, y, true));
    ASSERT_FALSE(gram.reduced());
    for (const auto& cols : subsets) {
      SubsetFactor factor;
      const bool factored = panel.factor(cols, true, factor);
      GramScratch scratch;
      LinearModel shared, own;
      const bool shared_ok = gram.solve_factored(cols, factor, scratch, shared);
      const bool own_ok = gram.solve_subset(cols, scratch, own);
      ASSERT_EQ(shared_ok, own_ok);
      EXPECT_EQ(factored, own_ok);
      refused += own_ok ? 0 : 1;
      if (!own_ok) continue;
      EXPECT_EQ(shared.intercept, own.intercept);
      EXPECT_EQ(shared.coefficients, own.coefficients);
      EXPECT_EQ(shared.r_squared, own.r_squared);
      EXPECT_EQ(shared.residual_stddev, own.residual_stddev);
    }
  }
  EXPECT_EQ(refused, 3u);  // {2, 4, 5} for each response

  // A response missing on panel rows gets its own reduced G, which the
  // panel's factor does not describe.
  std::vector<double> y = make_response(x, 300);
  y[7] = kMissing;
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));
  EXPECT_TRUE(gram.reduced());
}

TEST(GramPanel, NotOkWhenTooFewCompleteRows) {
  Matrix x(6, 2);
  for (std::size_t r = 0; r < 6; ++r) {
    x(r, 0) = static_cast<double>(r);
    x(r, 1) = r < 3 ? kMissing : 1.0;
  }
  const GramPanel panel = GramPanel::build(x);
  EXPECT_FALSE(panel.ok());
  // Binding to a bad panel fails too.
  GramSystem gram;
  EXPECT_FALSE(gram.bind(panel, std::vector<double>(6, 1.0), true));
  EXPECT_FALSE(gram.ok());
}

TEST(GramPanel, BindFailsWhenYLeavesTooFewJointRows) {
  Matrix x = random_design(8, 2, 13);
  std::vector<double> y(8, 1.0);
  for (std::size_t r = 0; r < 6; ++r) y[r] = kMissing;
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  EXPECT_FALSE(gram.bind(panel, y, true));
  EXPECT_FALSE(gram.ok());
}

TEST(GramPanel, BindRejectsSizeMismatch) {
  const Matrix x = random_design(20, 2, 17);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  EXPECT_FALSE(gram.bind(panel, std::vector<double>(19, 1.0), true));
}

TEST(GramPanel, SolveRejectsOversizedSubsets) {
  const Matrix x = random_design(8, 6, 9);
  const std::vector<double> y = make_response(x, 9);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));
  // 8 rows cannot support 6 coefficients + intercept with 1 dof to spare.
  GramScratch scratch;
  LinearModel out;
  const std::vector<std::size_t> cols = {0, 1, 2, 3, 4, 5};
  EXPECT_FALSE(gram.solve_subset(cols, scratch, out));
}

// The Gram solve agrees with QR up to the point where it refuses. Columns
// 0 and 1 of a 336x8 design are near-collinear (col1 = col0 + eps * noise),
// which puts QR's condition near 1/eps; over eps = 1 ... 1e-12 and 20
// seeds the Gram solve over every column is compared with fit_ols on the
// fitted values. Measured: every solve accepted up to condition 1.2e5
// (worst relative gap 6e-8), 4 of 20 accepted near 1e6 (gap 2.5e-6), none
// from 1e7 on. The Cholesky pivot floor is the only refusal: a pivot under
// 1e-12 of the largest Gram diagonal fails, so every accepted factor's L
// has a diagonal ratio below 1e6.
TEST(GramPanel, AgreesWithQrUntilItRefuses) {
  constexpr std::size_t kRows = 336;
  constexpr std::size_t kCols = 8;
  constexpr double kQrConditionRefused = 1e7;  // measured: refused from here
  constexpr double kMaxDiagonalRatio = 1e6;    // implied by the pivot floor
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int e = 0; e <= 12; ++e) {
    const double eps = std::pow(10.0, -e);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("eps 1e-" + std::to_string(e) + ", seed " +
                   std::to_string(seed));
      Rng rng(seed);
      Matrix x(kRows, kCols);
      for (std::size_t c = 0; c < kCols; ++c)
        for (std::size_t r = 0; r < kRows; ++r) x(r, c) = rng.normal();
      for (std::size_t r = 0; r < kRows; ++r)
        x(r, 1) = x(r, 0) + eps * rng.normal();
      std::vector<double> y(kRows);
      for (std::size_t r = 0; r < kRows; ++r) {
        double v = 0.5;
        for (std::size_t c = 0; c < kCols; ++c) v += 0.3 * x(r, c);
        y[r] = v + rng.normal(0.0, 0.1);
      }

      const LinearModel qr = fit_ols(x, y);
      const GramPanel panel = GramPanel::build(x);
      GramSystem gram;
      ASSERT_TRUE(gram.bind(panel, y, /*with_intercept=*/true));
      GramScratch scratch;
      LinearModel fast;
      const bool ok = gram.solve_subset(all, scratch, fast);
      // QR itself finds some eps = 1e-12 designs rank-deficient.
      const double condition = qr.ok ? qr.condition : HUGE_VAL;
      if (condition <= 1e4) {
        EXPECT_TRUE(ok) << "condition " << condition;
      }
      if (condition >= kQrConditionRefused) {
        ASSERT_FALSE(ok) << "condition " << condition;
      }
      if (!ok) {
        ++refused;
        continue;
      }
      ++accepted;
      const std::size_t ka = all.size() + 1;
      const std::vector<double>& l = scratch.factor.l;
      ASSERT_EQ(l.size(), ka * ka);
      double min_l = HUGE_VAL;
      double max_l = 0.0;
      for (std::size_t j = 0; j < ka; ++j) {
        min_l = std::min(min_l, l[j * ka + j]);
        max_l = std::max(max_l, l[j * ka + j]);
      }
      EXPECT_LT(max_l / min_l, kMaxDiagonalRatio) << "condition " << condition;
      std::vector<double> want(kRows);
      std::vector<double> got(kRows);
      qr.predict_columns_into(x, all, want);
      fast.predict_columns_into(x, all, got);
      double gap = 0.0;
      double scale = 0.0;
      for (std::size_t r = 0; r < kRows; ++r) {
        gap = std::max(gap, std::fabs(got[r] - want[r]));
        scale = std::max(scale, std::fabs(want[r]));
      }
      EXPECT_LE(gap, (condition <= 1e4 ? 1e-6 : 1e-3) * scale)
          << "condition " << condition;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace litmus::ts

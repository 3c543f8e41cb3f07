// Ordinary least squares via Householder QR.
//
// The paper (Section 3.2) deliberately uses *unregularized* linear
// regression: ridge/lasso shrinkage would allow post-change shifts in a
// small number of control elements to bend the forecast, which is exactly
// what the sampling + median-aggregation machinery is designed to prevent.
// QR is used (rather than normal equations) for numerical robustness when
// control-group series are strongly collinear — which they are by design,
// since controls are chosen to be spatially correlated.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tsmath/matrix.h"

namespace litmus::ts {

struct LinearModel {
  std::vector<double> coefficients;  ///< one per design column
  double intercept = 0.0;
  bool with_intercept = true;
  double r_squared = 0.0;            ///< in-sample fit quality
  double residual_stddev = 0.0;
  /// Conditioning diagnostic: max|R_kk| / min|R_kk| of the QR factor. A
  /// lower bound on the 2-norm condition number of the (augmented) design;
  /// large values flag near-collinear control groups. A Gram fast-path
  /// fit (tsmath/gram.h) leaves it 0.
  double condition = 0.0;
  /// False when the fit is degenerate, including a non-finite intercept
  /// or coefficient (an infinite regressor or response value).
  bool ok = false;

  /// Forecast for one design row.
  double predict_row(std::span<const double> row) const;

  /// Forecast for every row of `design` restricted to columns `cols`
  /// (cols.size() must equal coefficients.size()), without materializing
  /// the column subset, through the dispatched simd::predict kernel: each
  /// row adds its columns in `cols` order with separate mul and add, so a
  /// complete row's forecast is bit-identical to predict_row's, on every
  /// SIMD tier. Rows with a missing regressor forecast NaN. `out` must
  /// hold exactly design.rows() values; it may be a slice of a larger
  /// buffer, such as one row of the regression's forecast store.
  void predict_columns_into(const Matrix& design,
                            std::span<const std::size_t> cols,
                            std::span<double> out) const;
};

/// Fits y ≈ X beta (+ intercept). Rows of X where y or any regressor is
/// missing are dropped. Requires at least cols+2 complete rows and a
/// finite solution; otherwise returns a model with ok == false.
LinearModel fit_ols(const Matrix& design, std::span<const double> y,
                    bool with_intercept = true);

/// Householder QR least-squares solve of A x = b (A.rows() >= A.cols()).
/// Returns empty vector when A is numerically rank-deficient. When
/// `condition` is non-null it receives the R-diagonal ratio described at
/// LinearModel::condition (even for rank-deficient solves, where it is 0).
std::vector<double> qr_solve(const Matrix& a, std::span<const double> b,
                             double* condition = nullptr);

}  // namespace litmus::ts

#include "tsmath/linreg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tsmath/simd/kernels.h"
#include "tsmath/stats.h"
#include "tsmath/timeseries.h"

namespace litmus::ts {

double LinearModel::predict_row(std::span<const double> row) const {
  if (row.size() != coefficients.size())
    throw std::invalid_argument("predict_row: size mismatch");
  double y = intercept;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (is_missing(row[i])) return kMissing;
    y += coefficients[i] * row[i];
  }
  return y;
}

void LinearModel::predict_columns_into(const Matrix& design,
                                       std::span<const std::size_t> cols,
                                       std::span<double> out) const {
  if (cols.size() != coefficients.size() || out.size() != design.rows())
    throw std::invalid_argument("predict_columns_into: size mismatch");
  simd::predict(design.data(), design.rows(), cols.data(),
                coefficients.data(), cols.size(), intercept, out.data());
}

std::vector<double> qr_solve(const Matrix& a, std::span<const double> b,
                             double* condition) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (condition) *condition = 0.0;
  if (b.size() != m) throw std::invalid_argument("qr_solve: size mismatch");
  if (m < n) return {};

  // Working copies; R is built in place in `r`, b transformed in `rhs`.
  Matrix r(m, n);
  for (std::size_t c = 0; c < n; ++c) r.set_column(c, a.column(c));
  std::vector<double> rhs(b.begin(), b.end());

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm = 0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) return {};  // rank deficient
    if (r(k, k) > 0) norm = -norm;

    std::vector<double> v(m - k);
    v[0] = r(k, k) - norm;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    double vtv = 0;
    for (double x : v) vtv += x * x;
    if (vtv == 0.0) return {};

    r(k, k) = norm;
    for (std::size_t i = k + 1; i < m; ++i) r(i, k) = 0.0;

    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and rhs.
    for (std::size_t c = k + 1; c < n; ++c) {
      double dot = 0;
      for (std::size_t i = k; i < m; ++i) dot += v[i - k] * r(i, c);
      const double scale = 2.0 * dot / vtv;
      for (std::size_t i = k; i < m; ++i) r(i, c) -= scale * v[i - k];
    }
    double dot = 0;
    for (std::size_t i = k; i < m; ++i) dot += v[i - k] * rhs[i];
    const double scale = 2.0 * dot / vtv;
    for (std::size_t i = k; i < m; ++i) rhs[i] -= scale * v[i - k];
  }

  // Back substitution on the upper-triangular system.
  // Guard against near-singular diagonals relative to the matrix scale.
  double max_diag = 0;
  double min_diag = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    const double d = std::fabs(r(k, k));
    max_diag = std::max(max_diag, d);
    min_diag = std::min(min_diag, d);
  }
  if (max_diag == 0.0) return {};
  if (condition && min_diag > 0.0) *condition = max_diag / min_diag;

  std::vector<double> x(n, 0.0);
  for (std::size_t kk = n; kk-- > 0;) {
    if (std::fabs(r(kk, kk)) < 1e-12 * max_diag) return {};
    double s = rhs[kk];
    for (std::size_t c = kk + 1; c < n; ++c) s -= r(kk, c) * x[c];
    x[kk] = s / r(kk, kk);
  }
  return x;
}

LinearModel fit_ols(const Matrix& design, std::span<const double> y,
                    bool with_intercept) {
  LinearModel model;
  model.with_intercept = with_intercept;
  const std::size_t n_cols = design.cols();
  if (design.rows() != y.size())
    throw std::invalid_argument("fit_ols: row count mismatch");

  // Complete-case rows.
  std::vector<std::size_t> rows;
  rows.reserve(design.rows());
  for (std::size_t r = 0; r < design.rows(); ++r) {
    if (is_missing(y[r])) continue;
    bool complete = true;
    for (std::size_t c = 0; c < n_cols; ++c) {
      if (is_missing(design(r, c))) {
        complete = false;
        break;
      }
    }
    if (complete) rows.push_back(r);
  }

  const std::size_t aug = n_cols + (with_intercept ? 1 : 0);
  if (rows.size() < aug + 2) return model;  // not enough data

  Matrix a(rows.size(), aug);
  std::vector<double> b(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    std::size_t c_out = 0;
    if (with_intercept) a(i, c_out++) = 1.0;
    for (std::size_t c = 0; c < n_cols; ++c) a(i, c_out++) = design(r, c);
    b[i] = y[r];
  }

  const std::vector<double> sol = qr_solve(a, b, &model.condition);
  if (sol.empty()) return model;
  // An infinite cell is not missing, so it reaches the solve and comes
  // back as a NaN or infinite coefficient: that is a failed fit, not one
  // whose every forecast is silently dropped.
  for (const double v : sol)
    if (!std::isfinite(v)) return model;

  std::size_t c_in = 0;
  if (with_intercept) model.intercept = sol[c_in++];
  model.coefficients.assign(sol.begin() + static_cast<std::ptrdiff_t>(c_in),
                            sol.end());

  // Fit quality on the complete cases.
  double ss_res = 0;
  const double y_bar = mean(b);
  double ss_tot = 0;
  std::vector<double> row(n_cols);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    for (std::size_t c = 0; c < n_cols; ++c) row[c] = design(r, c);
    const double fit = model.predict_row(row);
    const double e = b[i] - fit;
    ss_res += e * e;
    ss_tot += (b[i] - y_bar) * (b[i] - y_bar);
  }
  model.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 0.0;
  const std::size_t dof = rows.size() - aug;
  model.residual_stddev =
      dof > 0 ? std::sqrt(ss_res / static_cast<double>(dof)) : 0.0;
  model.ok = true;
  return model;
}

}  // namespace litmus::ts

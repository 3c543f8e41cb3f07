// Minimal dense matrix used by the spatial regression. Column-major so the
// control-group design matrix (one column per control element) can be
// assembled column-by-column.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace litmus::ts {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[c * rows_ + r];
  }
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[c * rows_ + r];
  }

  std::span<const double> column(std::size_t c) const noexcept;
  std::span<double> column(std::size_t c) noexcept;

  /// Column-major storage: column c starts at data() + c * rows().
  const double* data() const noexcept { return data_.data(); }

  /// Copies `values` into column `c`; sizes must match.
  void set_column(std::size_t c, std::span<const double> values);

  /// Matrix with the listed columns, in order.
  Matrix select_columns(std::span<const std::size_t> cols) const;

  /// y = A x (x.size() == cols()).
  std::vector<double> multiply(std::span<const double> x) const;

  /// A^T y (y.size() == rows()).
  std::vector<double> transpose_multiply(std::span<const double> y) const;

  /// True when any entry is NaN.
  bool has_missing() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace litmus::ts

#include "tsmath/matrix.h"

#include <algorithm>
#include <stdexcept>

namespace litmus::ts {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

std::span<const double> Matrix::column(std::size_t c) const noexcept {
  return std::span<const double>(data_.data() + c * rows_, rows_);
}

std::span<double> Matrix::column(std::size_t c) noexcept {
  return std::span<double>(data_.data() + c * rows_, rows_);
}

void Matrix::set_column(std::size_t c, std::span<const double> values) {
  if (values.size() != rows_)
    throw std::invalid_argument("set_column: size mismatch");
  std::copy(values.begin(), values.end(), data_.begin() +
            static_cast<std::ptrdiff_t>(c * rows_));
}

Matrix Matrix::select_columns(std::span<const std::size_t> cols) const {
  Matrix out(rows_, cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] >= cols_)
      throw std::out_of_range("select_columns: column index out of range");
    out.set_column(i, column(cols[i]));
  }
  return out;
}

}  // namespace litmus::ts

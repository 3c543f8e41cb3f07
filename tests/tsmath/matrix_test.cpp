#include "tsmath/matrix.h"

#include <gtest/gtest.h>

#include "tsmath/timeseries.h"

namespace litmus::ts {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, ColumnSpanIsContiguous) {
  Matrix m(3, 2);
  m(0, 1) = 1.0;
  m(1, 1) = 2.0;
  m(2, 1) = 3.0;
  const auto col = m.column(1);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[0], 1.0);
  EXPECT_DOUBLE_EQ(col[2], 3.0);
}

TEST(Matrix, SetColumn) {
  Matrix m(3, 2);
  const std::vector<double> v{4.0, 5.0, 6.0};
  m.set_column(0, v);
  EXPECT_DOUBLE_EQ(m(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 6.0);
}

TEST(Matrix, SetColumnSizeMismatchThrows) {
  Matrix m(3, 1);
  EXPECT_THROW(m.set_column(0, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Matrix, SelectColumnsReorders) {
  Matrix m(2, 3);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t r = 0; r < 2; ++r) m(r, c) = static_cast<double>(c);
  const std::vector<std::size_t> cols{2, 0};
  Matrix sub = m.select_columns(cols);
  EXPECT_EQ(sub.cols(), 2u);
  EXPECT_DOUBLE_EQ(sub(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(sub(0, 1), 0.0);
}

TEST(Matrix, SelectColumnsOutOfRangeThrows) {
  Matrix m(2, 2);
  const std::vector<std::size_t> cols{5};
  EXPECT_THROW(m.select_columns(cols), std::out_of_range);
}

}  // namespace
}  // namespace litmus::ts

// Tier-independent kernel bodies, templated over a vec.h block type.
//
// Each kernels_<tier>.cpp instantiates these with its own block and
// packages the instantiations into a KernelTable. Like vec.h, everything
// lives in an anonymous namespace so instantiations can never be merged
// across translation units compiled with different -m flags (the linker
// would otherwise be free to hand every tier the one compiled with the
// widest instructions). Include only from kernels_*.cpp.
//
// The reduction pattern shared by sum/dot/accumulate_gram is the
// determinism contract of DESIGN.md §13 (predict is not a reduction and
// keeps a per-row order instead; see predict_impl):
//   * lane j of the 8-lane accumulator adds rows j, j+8, j+16, … of each
//     full block, in ascending order;
//   * the trailing n mod 8 rows fold into lanes 0..rem-1, one product
//     each, after the block loop;
//   * lanes reduce strictly left-to-right: ((…(l0+l1)+l2)…+l7).
// Every tier executes this exact operation sequence, so results are
// bit-identical under any LITMUS_SIMD setting. The sorting network
// (sort_lanes_impl) is no reduction either: it only moves values, so the
// tiers agree whenever they run the same compare-exchanges.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "tsmath/simd/kernels.h"

namespace litmus::ts::simd {
namespace {

inline double reduce8(const double* lanes) noexcept {
  double s = lanes[0];
  for (int j = 1; j < 8; ++j) s += lanes[j];
  return s;
}

template <class B>
double sum_impl(const double* p, std::size_t n) {
  B acc = B::zero();
  const B one = B::broadcast(1.0);
  std::size_t r = 0;
  for (; r + 8 <= n; r += 8) acc.madd(B::load(p + r), one);
  alignas(64) double lanes[8];
  acc.store(lanes);
  for (std::size_t j = 0; r + j < n; ++j) lanes[j] += p[r + j] * 1.0;
  return reduce8(lanes);
}

template <class B>
double dot_impl(const double* a, const double* b, std::size_t n) {
  B acc = B::zero();
  std::size_t r = 0;
  for (; r + 8 <= n; r += 8) acc.madd(B::load(a + r), B::load(b + r));
  alignas(64) double lanes[8];
  acc.store(lanes);
  for (std::size_t j = 0; r + j < n; ++j) lanes[j] += a[r + j] * b[r + j];
  return reduce8(lanes);
}

// Augmented-Gram accumulation, the register-blocked port of the scalar
// kernel gram.cpp used before the SIMD layer: column pairs share the left
// column's loads, every dot keeps the contract's row order. `g` is a
// zero-initialized (cols+1)² row-major buffer.
template <class B>
void accumulate_gram_impl(const double* packed, std::size_t n,
                          std::size_t cols, double* g) {
  const std::size_t aug = cols + 1;
  g[0] = static_cast<double>(n);
  alignas(64) double lanes[8];
  for (std::size_t c = 0; c < cols; ++c) {
    const double* pc = packed + c * n;
    const double s = sum_impl<B>(pc, n);
    g[0 * aug + (c + 1)] = s;
    g[(c + 1) * aug + 0] = s;
    std::size_t d = c;
    for (; d + 1 < cols; d += 2) {
      const double* pd0 = packed + d * n;
      const double* pd1 = packed + (d + 1) * n;
      B acc0 = B::zero();
      B acc1 = B::zero();
      std::size_t r = 0;
      for (; r + 8 <= n; r += 8) {
        const B v = B::load(pc + r);
        acc0.madd(v, B::load(pd0 + r));
        acc1.madd(v, B::load(pd1 + r));
      }
      acc0.store(lanes);
      for (std::size_t j = 0; r + j < n; ++j)
        lanes[j] += pc[r + j] * pd0[r + j];
      const double dot0 = reduce8(lanes);
      acc1.store(lanes);
      for (std::size_t j = 0; r + j < n; ++j)
        lanes[j] += pc[r + j] * pd1[r + j];
      const double dot1 = reduce8(lanes);
      g[(c + 1) * aug + (d + 1)] = dot0;
      g[(d + 1) * aug + (c + 1)] = dot0;
      g[(c + 1) * aug + (d + 2)] = dot1;
      g[(d + 2) * aug + (c + 1)] = dot1;
    }
    if (d < cols) {
      const double* pd = packed + d * n;
      const double dot = dot_impl<B>(pc, pd, n);
      g[(c + 1) * aug + (d + 1)] = dot;
      g[(d + 1) * aug + (c + 1)] = dot;
    }
  }
}

// Linear-model prediction over a column-major design whose columns are
// `rows` long: out[r] = intercept + Σ_i coef[i]·x[cols[i]·rows + r]. Not a
// reduction, so the 8-lane order above does not apply; instead every row
// starts at the intercept and adds its columns in index order, one
// separately rounded multiply and add each. That is the operation sequence
// of the plain column-by-column loop, so the result is bit-identical to it
// on every tier and under any row blocking. Rows go 32 at a time in four
// 8-row accumulators, which stay in registers across the column sweep;
// then single 8-row blocks, then a scalar tail.
template <class B>
void predict_impl(const double* x, std::size_t rows, const std::size_t* cols,
                  const double* coef, std::size_t k, double intercept,
                  double* out) {
  const B start = B::broadcast(intercept);
  std::size_t r = 0;
  for (; r + 32 <= rows; r += 32) {
    B a0 = start, a1 = start, a2 = start, a3 = start;
    for (std::size_t i = 0; i < k; ++i) {
      const double* col = x + cols[i] * rows + r;
      const B c = B::broadcast(coef[i]);
      a0.madd(c, B::load(col));
      a1.madd(c, B::load(col + 8));
      a2.madd(c, B::load(col + 16));
      a3.madd(c, B::load(col + 24));
    }
    a0.store(out + r);
    a1.store(out + r + 8);
    a2.store(out + r + 16);
    a3.store(out + r + 24);
  }
  for (; r + 8 <= rows; r += 8) {
    B a = start;
    for (std::size_t i = 0; i < k; ++i)
      a.madd(B::broadcast(coef[i]), B::load(x + cols[i] * rows + r));
    a.store(out + r);
  }
  for (; r < rows; ++r) {
    double y = intercept;
    for (std::size_t i = 0; i < k; ++i) y += coef[i] * x[cols[i] * rows + r];
    out[r] = y;
  }
}

// Exact integer counting — order-independent, so no lane contract needed.
// NaN compares false under both < and ==, which is precisely the
// "missing sample entries are ignored" rule of ranks.h.
template <class B>
CmpCount count_cmp_impl(const double* ys, std::size_t n, double x) {
  const B bx = B::broadcast(x);
  CmpCount out;
  std::size_t r = 0;
  for (; r + 8 <= n; r += 8) {
    const B v = B::load(ys + r);
    out.below += static_cast<unsigned>(std::popcount(v.lt_mask(bx)));
    out.equal += static_cast<unsigned>(std::popcount(v.eq_mask(bx)));
  }
  for (; r < n; ++r) {
    out.below += ys[r] < x ? 1u : 0u;
    out.equal += ys[r] == x ? 1u : 0u;
  }
  return out;
}

template <class B>
void scan_missing_bits_impl(const double* p, std::size_t n,
                            std::uint64_t* bits) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) bits[w] = 0;
  std::size_t r = 0;
  // r stays a multiple of 8, so a block's 8-bit mask never straddles a
  // 64-bit word.
  for (; r + 8 <= n; r += 8) {
    const unsigned m = B::load(p + r).nan_mask();
    if (m != 0)
      bits[r >> 6] |= static_cast<std::uint64_t>(m) << (r & 63u);
  }
  for (; r < n; ++r)
    if (p[r] != p[r]) bits[r >> 6] |= std::uint64_t{1} << (r & 63u);
}

template <class B>
std::size_t count_missing_impl(const double* p, std::size_t n) {
  std::size_t count = 0;
  std::size_t r = 0;
  for (; r + 8 <= n; r += 8)
    count += static_cast<unsigned>(std::popcount(B::load(p + r).nan_mask()));
  for (; r < n; ++r) count += p[r] != p[r] ? 1u : 0u;
  return count;
}

// Sorts 8 columns of a row-major block, one column per lane: every row
// is copied into `out` with NaN cells turned +∞ (counting them per lane),
// then the network's compare-exchanges run on `out`'s rows in list order.
// A lane's cells never leave the lane and are only ever swapped, so the
// output is the lane's cells in ascending order whatever the tier.
template <class B>
void sort_lanes_impl(const double* in, std::size_t stride, std::size_t rows,
                     const SortPair* network, std::size_t n_pairs, double* out,
                     std::size_t* counts) {
  std::size_t missing[8] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    unsigned nan = 0;
    B::load_nan_as_inf(in + r * stride, nan).store(out + 8 * r);
    for (; nan != 0; nan &= nan - 1) ++missing[std::countr_zero(nan)];
  }
  for (int j = 0; j < 8; ++j) counts[j] = rows - missing[j];
  for (std::size_t p = 0; p < n_pairs; ++p) {
    double* lo = out + 8 * std::size_t{network[p].lo};
    double* hi = out + 8 * std::size_t{network[p].hi};
    B a = B::load(lo);
    B b = B::load(hi);
    B::exchange(a, b);
    a.store(lo);
    b.store(hi);
  }
}

/// The tier table over block type B, as a function-local static so each
/// translation unit owns exactly one internal-linkage copy.
template <class B>
const KernelTable* table_for() noexcept {
  static const KernelTable table = {
      &sum_impl<B>,
      &dot_impl<B>,
      &accumulate_gram_impl<B>,
      &predict_impl<B>,
      &count_cmp_impl<B>,
      &scan_missing_bits_impl<B>,
      &count_missing_impl<B>,
      &sort_lanes_impl<B>,
  };
  return &table;
}

}  // namespace
}  // namespace litmus::ts::simd

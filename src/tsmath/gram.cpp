#include "tsmath/gram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tsmath/simd/kernels.h"
#include "tsmath/timeseries.h"

namespace litmus::ts {
namespace {

constexpr std::size_t kWordBits = 64;

inline bool test_bit(std::span<const std::uint64_t> bits,
                     std::size_t i) noexcept {
  return (bits[i / kWordBits] >> (i % kWordBits)) & 1u;
}

// Accumulates the augmented Gram matrix over `cols` packed (contiguous,
// complete-case) columns of `n` rows each into `g`, a (cols+1)² row-major
// buffer. Routed through the dispatched SIMD kernel: all tiers follow the
// same fixed 8-lane block accumulation order (simd/dispatch.h), so the
// result is identical whichever tier runs it.
void accumulate_gram(const double* packed, std::size_t n, std::size_t cols,
                     std::vector<double>& g) {
  const std::size_t aug = cols + 1;
  g.assign(aug * aug, 0.0);
  simd::accumulate_gram(packed, n, cols, g.data());
}

// The response-free half of a batch of subset fits: lane l's augmented
// indices (the intercept's 0 first, then each column c as c+1) into
// f.index, then simd::factor_lanes over `g_full`, the aug×aug augmented
// Gram. The lanes past the batch repeat subset 0 and are masked out of
// f.ok. Every accepted pivot exceeds 1e-12 of its subset's largest
// sub-Gram diagonal and none exceeds it, so an accepted L has a diagonal
// ratio below 1e6; the floor is the only conditioning check the normal
// equations need before QR takes over.
void factor_batch(const double* g_full, std::size_t aug,
                  std::span<const std::size_t> cols, std::size_t k,
                  bool with_intercept, bool factor, FactorBatch& f) {
  if (k == 0 || cols.empty() || cols.size() % k != 0 ||
      cols.size() / k > FactorBatch::kLanes)
    throw std::invalid_argument(
        "Gram factor: cols must hold 1 to 8 subsets of k > 0 columns");
  f.lanes = cols.size() / k;
  f.k = k;
  f.with_intercept = with_intercept;
  f.ok = 0;
  if (!factor) return;
  const std::size_t ka = f.ka();
  f.index.resize(FactorBatch::kLanes * ka);
  for (std::size_t lane = 0; lane < FactorBatch::kLanes; ++lane) {
    const std::size_t* subset = cols.data() + (lane < f.lanes ? lane : 0) * k;
    std::size_t* idx = f.index.data() + lane * ka;
    if (with_intercept) *idx++ = 0;
    for (std::size_t i = 0; i < k; ++i) idx[i] = subset[i] + 1;
  }
  f.l.resize(ka * ka);
  f.ok = simd::factor_lanes(g_full, aug, f.index.data(), ka, f.l.data()) &
         ((1u << f.lanes) - 1);
}

}  // namespace

GramPanel GramPanel::build(const Matrix& design) {
  GramPanel p;
  p.rebuild(design);
  return p;
}

void GramPanel::rebuild(const Matrix& design) {
  n_cols_ = design.cols();
  m_ = design.rows();
  n_rows_ = 0;
  words_ = 0;
  ok_ = false;
  g_.clear();
  packed_.clear();
  rows_.clear();
  col_missing_.clear();
  x_missing_.clear();
  if (m_ == 0 || n_cols_ == 0) return;

  words_ = (m_ + kWordBits - 1) / kWordBits;
  col_missing_.assign(n_cols_ * words_, 0);
  x_missing_.assign(words_, 0);

  for (std::size_t c = 0; c < n_cols_; ++c) {
    const auto col = design.column(c);
    std::uint64_t* bits = col_missing_.data() + c * words_;
    simd::scan_missing_bits(col, bits);
    for (std::size_t w = 0; w < words_; ++w) x_missing_[w] |= bits[w];
  }

  rows_.reserve(m_);
  for (std::size_t r = 0; r < m_; ++r)
    if (!test_bit(x_missing_, r))
      rows_.push_back(static_cast<std::uint32_t>(r));
  n_rows_ = rows_.size();
  // The tightest subset fit needs aug+2 rows; require at least the
  // smallest useful panel so degenerate windows skip straight to QR.
  if (n_rows_ < 4) return;

  // Gather the complete-case rows contiguous (column-major), then run the
  // blocked columnar accumulation on stride-1 memory.
  packed_.resize(n_rows_ * n_cols_);
  for (std::size_t c = 0; c < n_cols_; ++c) {
    const auto col = design.column(c);
    double* out = packed_.data() + c * n_rows_;
    for (std::size_t i = 0; i < n_rows_; ++i) out[i] = col[rows_[i]];
  }
  accumulate_gram(packed_.data(), n_rows_, n_cols_, g_);
  ok_ = true;
}

bool GramSystem::bind(const GramPanel& panel, std::span<const double> y,
                      bool with_intercept) {
  panel_ = &panel;
  ok_ = false;
  g_reduced_.clear();
  with_intercept_ = with_intercept;
  if (!panel.ok_ || y.size() != panel.m_) return false;

  y_missing_.resize(panel.words_);
  simd::scan_missing_bits(y, y_missing_.data());

  all_missing_.resize(panel.words_);
  bool reduced = false;
  for (std::size_t w = 0; w < panel.words_; ++w) {
    all_missing_[w] = panel.x_missing_[w] | y_missing_[w];
    reduced |= all_missing_[w] != panel.x_missing_[w];
  }

  // Gather y over the usable panel rows; positions index into the panel's
  // packed row order so the reduced re-accumulation can gather from the
  // already-packed columns.
  std::vector<std::uint32_t> positions;
  std::vector<double> y_packed;
  y_packed.reserve(panel.n_rows_);
  if (reduced) {
    positions.reserve(panel.n_rows_);
    for (std::size_t i = 0; i < panel.n_rows_; ++i)
      if (!is_missing(y[panel.rows_[i]])) {
        positions.push_back(static_cast<std::uint32_t>(i));
        y_packed.push_back(y[panel.rows_[i]]);
      }
    n_rows_ = positions.size();
  } else {
    for (std::size_t i = 0; i < panel.n_rows_; ++i)
      y_packed.push_back(y[panel.rows_[i]]);
    n_rows_ = panel.n_rows_;
  }
  if (n_rows_ < 4) return false;

  const double* cols_data = panel.packed_.data();
  std::vector<double> reduced_packed;
  if (reduced) {
    // y knocks rows out of the panel: re-gather the surviving rows and
    // re-accumulate an owned G over them with the same kernel (and the
    // same ascending row order) a fresh build over the joint rows would
    // use, so a shared panel yields bit-identical results.
    reduced_packed.resize(n_rows_ * panel.n_cols_);
    for (std::size_t c = 0; c < panel.n_cols_; ++c) {
      const double* in = panel.packed_.data() + c * panel.n_rows_;
      double* out = reduced_packed.data() + c * n_rows_;
      for (std::size_t i = 0; i < n_rows_; ++i) out[i] = in[positions[i]];
    }
    cols_data = reduced_packed.data();
    accumulate_gram(cols_data, n_rows_, panel.n_cols_, g_reduced_);
  }

  // X̃ᵀy GEMV through the dispatched kernels: Σy, yᵀy, then one packed
  // column·y dot per predictor.
  const std::span<const double> yp{y_packed.data(), n_rows_};
  sum_y_ = simd::sum(yp);
  yty_ = simd::dot(yp, yp);
  xty_.assign(panel.n_cols_ + 1, 0.0);
  xty_[0] = sum_y_;
  for (std::size_t c = 0; c < panel.n_cols_; ++c) {
    const double* pc = cols_data + c * n_rows_;
    xty_[c + 1] = simd::dot({pc, n_rows_}, yp);
  }
  ok_ = true;
  return true;
}

bool GramSystem::subset_matches_panel(
    std::span<const std::size_t> cols) const noexcept {
  if (!ok_) return false;
  const std::size_t words = panel_->words_;
  for (std::size_t w = 0; w < words; ++w) {
    // The plain fit drops rows missing in y or in a *selected* column; the
    // solve is exact iff that union reproduces the joint complement the
    // Gram quantities were accumulated over.
    std::uint64_t u = y_missing_[w];
    for (const auto c : cols) u |= panel_->col_missing_[c * words + w];
    if (u != all_missing_[w]) return false;
  }
  return true;
}

void GramPanel::factor(std::span<const std::size_t> cols, std::size_t k,
                       bool with_intercept, FactorBatch& out) const {
  factor_batch(g_.data(), n_cols_ + 1, cols, k, with_intercept, ok_, out);
}

void GramSystem::factor(std::span<const std::size_t> cols, std::size_t k,
                        FactorBatch& out) const {
  const bool fit = fits(k);
  factor_batch(fit ? gram() : nullptr, fit ? panel_->n_cols_ + 1 : 0, cols, k,
               with_intercept_, fit, out);
}

void GramSystem::solve(const FactorBatch& f, SolveBatch& out) const {
  out.usable = 0;
  if (!fits(f.k) || f.with_intercept != with_intercept_ || f.ok == 0) return;
  const std::size_t ka = f.ka();
  out.rhs.resize(ka);
  out.sol.resize(ka);
  out.usable = simd::solve_lanes(f.l.data(), ka, xty_.data(), f.index.data(),
                                 out.rhs.data(), out.sol.data()) &
               f.ok;
}

bool GramSystem::model(const FactorBatch& f, const SolveBatch& s,
                       std::size_t lane, LinearModel& out) const {
  // A fresh model that keeps the coefficient capacity of one the caller
  // reuses across iterations.
  std::vector<double> coefficients = std::move(out.coefficients);
  coefficients.clear();
  out = LinearModel{};
  out.coefficients = std::move(coefficients);
  out.with_intercept = with_intercept_;
  // An infinite response cell reaches X̃ᵀy but not the pivots, so it
  // surfaces in the solve, as a non-finite solution; that is a failed fit.
  if (lane >= f.lanes || !((s.usable >> lane) & 1u)) return false;

  const std::size_t ka = f.ka();
  const auto sol = [&](std::size_t i) { return s.sol[i].lane[lane]; };
  std::size_t c_in = 0;
  if (with_intercept_) out.intercept = sol(c_in++);
  out.coefficients.resize(ka - c_in);
  for (std::size_t i = c_in; i < ka; ++i) out.coefficients[i - c_in] = sol(i);

  // Fit quality from the Gram quantities: for the normal-equation solution
  // βᵀGβ = βᵀX̃ᵀy, so SS_res = yᵀy − βᵀX̃ᵀy (clamped against round-off).
  double fitted = 0.0;
  for (std::size_t i = 0; i < ka; ++i) fitted += sol(i) * s.rhs[i].lane[lane];
  const double ss_res = std::max(0.0, yty_ - fitted);
  const double n = static_cast<double>(n_rows_);
  const double y_bar = sum_y_ / n;
  const double ss_tot = std::max(0.0, yty_ - n * y_bar * y_bar);
  out.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 0.0;
  const std::size_t dof = n_rows_ - ka;
  out.residual_stddev =
      dof > 0 ? std::sqrt(ss_res / static_cast<double>(dof)) : 0.0;
  out.ok = true;
  return true;
}

}  // namespace litmus::ts

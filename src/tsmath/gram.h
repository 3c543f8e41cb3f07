// Gram-matrix fast path for the Litmus sampling loop.
//
// The robust spatial regression fits the *same* before-window panel
// hundreds of times, each time on a different k-column subset of the
// design. Re-running Householder QR per subset costs O(m·k²) per
// iteration. The fast path instead precomputes, once per design,
//
//   G = X̃ᵀX̃        with X̃ = [1 | X] over the *panel rows*
//
// (the rows where every control column is observed, tracked with
// per-column missing bitsets), then binds a response y to form X̃ᵀy and
// the y moments, and solves each iteration's k̃×k̃ normal-equation
// subsystem by Cholesky — O(k³) per iteration, independent of the window
// length m.
//
// The precompute is split in two so the expensive design-only half can be
// shared across study elements that regress onto the same control panel
// (one assessment's elements share it through litmus::core::SharedDesign;
// an element outside such a block rebuilds one in its thread's scratch):
//
//   * GramPanel — design-only, built by build() or refilled in place by
//     rebuild(): complete-case row set, per-column validity bitsets, the
//     packed (gathered, contiguous) column data, and G accumulated over
//     the panel rows with a register-blocked columnar kernel. Read-only
//     between builds, so safe to share across threads.
//   * GramSystem — one response bound to a panel: X̃ᵀy, Σy, Σy² and the
//     joint missing-row bitset. When y is missing on some panel rows the
//     bind re-accumulates a reduced G over the joint rows (same columnar
//     kernel, same row order — results do not depend on where the panel
//     came from).
//
// Subset fits run in batches of up to eight subsets of one size, one per
// SIMD lane (simd::factor_lanes, simd::solve_lanes), in two steps. The
// factor — gather each subset's sub-Gram, Cholesky it with the pivot
// guard — reads only G and the subsets, so GramPanel::factor computes it
// once for every response whose system uses the panel's G verbatim (not
// reduced); GramSystem::factor computes it on the system's own G. The
// response solve — gather X̃ᵀy, the two triangular solves, the finiteness
// check — is GramSystem::solve, and GramSystem::model reads one lane's
// coefficients and R² from it. Each lane runs the operation sequence of a
// one-subset Cholesky and solve, so a subset's bits do not depend on its
// lane, on the other subsets of its batch, on the SIMD tier, or on whether
// its factor came from a shared panel.
//
// Exactness rule: ordinary fit_ols drops only the rows incomplete in the
// *selected* columns, while G is accumulated over rows complete in *all*
// columns (∩ y). The Gram solve therefore reproduces the QR fit (up to
// round-off) exactly when the subset's complete-case row set equals the
// panel row set — subset_matches_panel(), a cheap bitset comparison. When
// it differs, or a Cholesky pivot falls under 1e-12 of the largest
// sub-Gram diagonal (the normal equations square the condition number, so
// near-collinear subsets are left to QR; an accepted factor's diagonal
// ratio is below 1e6), the caller falls back to fit_ols.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tsmath/linreg.h"
#include "tsmath/matrix.h"
#include "tsmath/simd/kernels.h"

namespace litmus::ts {

/// The Cholesky factors of up to kLanes column subsets of k columns each,
/// one per SIMD lane, k̃ = k+1 unknowns with the intercept. Response-free:
/// they depend only on G and the subsets. A caller keeps one per thread (or
/// shares a finished one read-only); refactoring reuses its capacity.
struct FactorBatch {
  static constexpr std::size_t kLanes = simd::kFitLanes;

  std::size_t lanes = 0;  ///< subsets factored, ≤ kLanes
  std::size_t k = 0;      ///< columns per subset
  bool with_intercept = true;
  /// Bit l set when subset l's factor cleared every pivot; clear for the
  /// lanes past `lanes`, which repeat subset 0.
  unsigned ok = 0;
  /// Lane l's augmented G indices at [l·ka, (l+1)·ka): 0 the intercept,
  /// c+1 design column c.
  std::vector<std::size_t> index;
  /// k̃×k̃ cells, row-major, lane l's L(i, j) (j ≤ i) in l[i·ka+j].lane[l].
  std::vector<simd::LaneCell> l;

  std::size_t ka() const noexcept { return k + (with_intercept ? 1 : 0); }
  bool lane_ok(std::size_t lane) const noexcept { return (ok >> lane) & 1u; }
  /// Subset `lane`'s L(i, j), j ≤ i.
  double at(std::size_t lane, std::size_t i, std::size_t j) const noexcept {
    return l[i * ka() + j].lane[lane];
  }
};

/// One response's solve of a FactorBatch (GramSystem::solve). Keep one per
/// thread: a warm one allocates nothing.
struct SolveBatch {
  std::vector<simd::LaneCell> rhs;  ///< each lane's X̃ᵀy gather
  std::vector<simd::LaneCell> sol;  ///< each lane's solution
  /// Bit l set when lane l has a usable solution: its factor is ok, the
  /// system fits k, and the solution is finite.
  unsigned usable = 0;
};

class GramPanel {
 public:
  GramPanel() = default;

  /// Accumulates the design-only Gram system over the complete-case rows
  /// of `design` (rows observed in every column). O(m·N²), once per
  /// design; the result is immutable and safe to share across threads.
  static GramPanel build(const Matrix& design);

  /// build() in place: clears this panel and refills it from `design`,
  /// keeping its buffers' capacity, so a panel that one thread rebuilds
  /// for design after design allocates nothing once its buffers have
  /// grown. The bits are a fresh build()'s; build() runs this.
  void rebuild(const Matrix& design);

  /// Whether precomputing the panel pays for itself. The build costs
  /// ~m·N²/2 multiply-adds over ALL N columns, while each iteration it
  /// replaces saves ~m·k² (the QR fit over only the k selected columns).
  /// Dividing out m, the crossover is n_iterations·k² vs N²/2; below it
  /// (large control group, few iterations, or k clamped far below N by a
  /// short window) the precompute costs more than the QR loop it removes,
  /// so callers should skip build() and fit with QR directly. (A panel
  /// shared by an assessment's elements makes the build free for all but
  /// one of them, but the decision must not depend on where the panel
  /// comes from, or shared and unshared runs could diverge.)
  static bool worthwhile(std::size_t n_iterations, std::size_t k,
                         std::size_t n_cols) noexcept {
    return n_iterations * k * k >= n_cols * n_cols / 2;
  }

  /// False when too few complete rows exist for any subset fit; callers
  /// should then use fit_ols unconditionally.
  bool ok() const noexcept { return ok_; }

  /// Rows complete in every design column.
  std::size_t panel_rows() const noexcept { return n_rows_; }
  std::size_t cols() const noexcept { return n_cols_; }
  /// Rows of the design the panel was built from.
  std::size_t design_rows() const noexcept { return m_; }

  /// Factors the normal equations of cols.size()/k column subsets over
  /// this panel's G into `out`, subset l being cols[l·k, (l+1)·k). Throws
  /// std::invalid_argument unless k > 0 and that is 1..kLanes whole
  /// subsets. out.ok is 0 when the panel is not ok.
  void factor(std::span<const std::size_t> cols, std::size_t k,
              bool with_intercept, FactorBatch& out) const;

 private:
  friend class GramSystem;

  std::size_t n_cols_ = 0;  ///< design columns (controls)
  std::size_t n_rows_ = 0;  ///< panel (complete-case) rows
  std::size_t m_ = 0;       ///< design rows
  std::size_t words_ = 0;   ///< bitset words per column (⌈m/64⌉)
  bool ok_ = false;
  /// Design-only augmented Gram, (N+1)×(N+1) row-major over the panel
  /// rows; index 0 is the intercept column, index j+1 is design column j.
  std::vector<double> g_;
  /// Panel rows gathered contiguous: column-major n_rows_×n_cols_, the
  /// complete-case rows of the design in ascending row order.
  std::vector<double> packed_;
  std::vector<std::uint32_t> rows_;  ///< panel row indices, ascending
  /// Missing-row bitsets: column c occupies words [c·words_, (c+1)·words_),
  /// plus the union over all columns (complement of the panel row set).
  std::vector<std::uint64_t> col_missing_;
  std::vector<std::uint64_t> x_missing_;
};

/// One response bound to a GramPanel: the per-study-element half of the
/// normal equations. Cheap to build — O(m·N) — against a shared panel;
/// falls back to an owned O(m·N²) re-accumulation only when y is missing
/// on some panel rows. Holds a pointer to the panel: the panel must
/// outlive the system.
class GramSystem {
 public:
  GramSystem() = default;

  /// Binds `y` (size == panel.design_rows()) to the panel. Returns false —
  /// leaving ok() false — when the panel is not ok, sizes mismatch, or
  /// fewer than 4 rows are complete in y and every column.
  bool bind(const GramPanel& panel, std::span<const double> y,
            bool with_intercept);

  bool ok() const noexcept { return ok_; }

  /// Rows complete in y and every design column.
  std::size_t rows() const noexcept { return n_rows_; }

  /// True when restricting the design to `cols` keeps the complete-case
  /// row set identical to this system's — the condition under which a
  /// subset's Gram fit is exact. O(k · m/64).
  bool subset_matches_panel(std::span<const std::size_t> cols) const noexcept;

  /// True when y is missing on some panel rows, so this system's G is its
  /// own reduced one rather than the panel's, and a factor from
  /// GramPanel::factor does not apply to it.
  bool reduced() const noexcept { return !g_reduced_.empty(); }

  /// GramPanel::factor over this system's G — the panel's, or its own
  /// reduced one — with this system's intercept setting. out.ok is 0 when
  /// the system is not ok or has too few rows for k columns.
  void factor(std::span<const std::size_t> cols, std::size_t k,
              FactorBatch& out) const;

  /// Solves every lane of `f`, a factor of this system's G (from factor(),
  /// or from GramPanel::factor when the system is not reduced()), for this
  /// response into `out`.
  void solve(const FactorBatch& f, SolveBatch& out) const;

  /// Lane `lane`'s fit from solve(f, s): coefficients, intercept, R²,
  /// residual stddev and ok, keeping `out.coefficients`' capacity so a
  /// model reused across iterations does not reallocate; `out.condition`
  /// stays 0, the QR solve's diagnostic. Returns false — `out` reset,
  /// ok == false — when a pivot of the lane's sub-Gram fell under the
  /// relative floor (numerically non-positive-definite, or too
  /// ill-conditioned for the normal equations), the system has too few rows
  /// for the subset, or the solution is not finite; callers fall back to
  /// QR.
  bool model(const FactorBatch& f, const SolveBatch& s, std::size_t lane,
             LinearModel& out) const;

 private:
  /// Whether a k-column subset has enough joint rows for a fit.
  bool fits(std::size_t k) const noexcept {
    return ok_ && k > 0 && n_rows_ >= k + (with_intercept_ ? 1 : 0) + 2;
  }

  const GramPanel* panel_ = nullptr;
  bool ok_ = false;
  bool with_intercept_ = true;
  std::size_t n_rows_ = 0;   ///< joint complete-case rows
  std::vector<double> xty_;  ///< augmented X̃ᵀy, size N+1
  double yty_ = 0.0;         ///< Σ y² over joint rows
  double sum_y_ = 0.0;       ///< Σ y over joint rows
  /// Rows where y is missing, and x_missing ∪ y_missing — the complement
  /// of the joint row set. Both kept: subset_matches_panel needs y's own
  /// bits (a row missing in y *and* in an unselected column is dropped by
  /// the plain fit too, so such subsets still match).
  std::vector<std::uint64_t> y_missing_;
  std::vector<std::uint64_t> all_missing_;
  /// Reduced G when y is missing on panel rows; empty when the shared
  /// panel G applies verbatim.
  std::vector<double> g_reduced_;

  const double* gram() const noexcept {
    return g_reduced_.empty() ? panel_->g_.data() : g_reduced_.data();
  }
};

}  // namespace litmus::ts

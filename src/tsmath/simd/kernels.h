// Dispatched hot-path kernels (see dispatch.h for the tier model and the
// determinism contract). Call the free functions; they route through the
// KernelTable of the active tier with one relaxed atomic load per call,
// which is noise against loops of hundreds of rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace litmus::ts::simd {

/// Exact comparison counts of one probe value against a sample.
struct CmpCount {
  std::uint64_t below = 0;  ///< #{ j : ys[j] <  x }
  std::uint64_t equal = 0;  ///< #{ j : ys[j] == x }
};

/// One compare-exchange of a sorting network over rows `lo` < `hi`: the
/// smaller value goes to `lo`.
struct SortPair {
  std::uint32_t lo;
  std::uint32_t hi;
};

/// Systems the subset Cholesky kernels factor and solve at once, one per
/// lane of the 8-lane block.
inline constexpr std::size_t kFitLanes = 8;

/// One cell of the subset kernels' lane-interleaved buffers: lane l's value
/// in lane[l], on a 64-byte boundary so an 8-lane block never straddles a
/// cache line.
struct alignas(64) LaneCell {
  double lane[kFitLanes];
};

/// One tier's kernel implementations, bit-identical across tiers.
struct KernelTable {
  double (*sum)(const double* p, std::size_t n);
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// Augmented-Gram accumulation over `cols` packed column-major columns
  /// of `n` rows into `g`, a zero-initialized (cols+1)² row-major buffer.
  void (*accumulate_gram)(const double* packed, std::size_t n,
                          std::size_t cols, double* g);
  /// out[r] = intercept + Σ_i coef[i]·x[cols[i]·rows + r] over a
  /// column-major design of `rows`-long columns; each row adds its k
  /// columns in index order with separate mul and add.
  void (*predict)(const double* x, std::size_t rows, const std::size_t* cols,
                  const double* coef, std::size_t k, double intercept,
                  double* out);
  /// NaN-safe: NaN sample entries count as neither below nor equal.
  CmpCount (*count_cmp)(const double* ys, std::size_t n, double x);
  /// Sets bit i of `bits` (⌈n/64⌉ words, fully overwritten) iff p[i] is
  /// NaN.
  void (*scan_missing_bits)(const double* p, std::size_t n,
                            std::uint64_t* bits);
  std::size_t (*count_missing)(const double* p, std::size_t n);
  /// Sorts 8 adjacent columns ("lanes") of the first `rows` rows of a
  /// row-major block (rows `stride` doubles apart) into `out` (rows × 8,
  /// row-major) by running the `n_pairs` compare-exchanges of `network`.
  /// NaN cells load as +∞; counts[j] receives lane j's non-NaN count.
  void (*sort_lanes)(const double* in, std::size_t stride, std::size_t rows,
                     const SortPair* network, std::size_t n_pairs,
                     double* out, std::size_t* counts);
  /// Lower Cholesky factors of 8 ka×ka systems, lane l's taken from the
  /// row-major `g` (rows `stride` doubles apart) at rows and columns
  /// index[l·ka .. l·ka+ka), into `l` (ka×ka cells, row-major; the lower
  /// triangle is written). Returns the lanes whose every pivot cleared
  /// 1e-12 of the largest diagonal.
  unsigned (*factor_lanes)(const double* g, std::size_t stride,
                           const std::size_t* index, std::size_t ka,
                           LaneCell* l);
  /// Solves L Lᵀ x = b in every lane of a factor_lanes result, lane l's b
  /// being xty at index[l·ka ..]: b into `rhs`, x into `sol` (ka cells
  /// each). Returns the lanes whose x is finite.
  unsigned (*solve_lanes)(const LaneCell* l, std::size_t ka,
                          const double* xty, const std::size_t* index,
                          LaneCell* rhs, LaneCell* sol);
};

/// The active tier's table (after LITMUS_SIMD / --simd overrides).
const KernelTable& kernels() noexcept;

// ---- convenience wrappers over kernels() ------------------------------

/// Σ p[i], fixed 8-lane block order.
double sum(std::span<const double> p) noexcept;

/// Σ a[i]·b[i], fixed 8-lane block order.
double dot(std::span<const double> a, std::span<const double> b) noexcept;

/// Augmented Gram into `g` (pre-sized (cols+1)², will be overwritten).
/// g[0][0] is set to n, row/col 0 to the column sums.
void accumulate_gram(const double* packed, std::size_t n, std::size_t cols,
                     double* g) noexcept;

/// Linear-model forecast of every row of the column-major design `x`
/// (`rows`-long columns) from the columns `cols` weighted by `coef`
/// (both k long) into `out` (rows long). A NaN regressor makes its row's
/// forecast NaN.
void predict(const double* x, std::size_t rows, const std::size_t* cols,
             const double* coef, std::size_t k, double intercept,
             double* out) noexcept;

/// Comparison counts of `x` against `ys` (NaN entries of ys ignored).
CmpCount count_cmp(std::span<const double> ys, double x) noexcept;

/// Missing (NaN) bitmap of `p` into `bits` (⌈n/64⌉ words, overwritten).
void scan_missing_bits(std::span<const double> p,
                       std::uint64_t* bits) noexcept;

/// #NaN entries of `p`.
std::size_t count_missing(std::span<const double> p) noexcept;

/// Sorts each of the 8 columns in[0..7] over rows 0..rows-1 (row r at
/// in + r·stride) ascending into `out` (rows × 8, row-major), NaN cells
/// last as +∞, and sets counts[j] to column j's non-NaN count. `network`
/// must be sort_network(rows). Every tier runs the same compare-exchange
/// sequence, and an exchange swaps two cells only when the upper one is
/// strictly smaller, so each output column is a permutation of its input
/// cells (NaN turned +∞) and the tiers agree bit for bit.
void sort_lanes(const double* in, std::size_t stride, std::size_t rows,
                std::span<const SortPair> network, double* out,
                std::size_t* counts) noexcept;

/// Factors 8 symmetric systems at once, one per lane: lane l's system is
/// g[index[l·ka + i]·stride + index[l·ka + j]], i, j < ka. Each lane runs
/// the left-looking Cholesky of a single system: its pivot floor is 1e-12
/// times its largest diagonal (taken as std::max takes it, and refused
/// unless positive); then for each column j, in order,
///   d = g_jj − Σ_{t<j} l_jt·l_jt,  l_jj = √d,
///   l_ij = (g_ij − Σ_{t<j} l_it·l_jt) / l_jj  for i > j,
/// every sum running t upwards with each product rounded before its
/// subtraction. A lane fails at its first pivot d that is not above the
/// floor; its later cells are unspecified. Returns bit l set for each lane
/// that did not fail. L(i, j) of lane l lands in l[i·ka + j].lane[l].
unsigned factor_lanes(const double* g, std::size_t stride,
                      const std::size_t* index, std::size_t ka,
                      LaneCell* l) noexcept;

/// Solves every lane of a factor_lanes result for the right-hand side
/// b_i = xty[index[l·ka + i]]: forward substitution L z = b, then back
/// substitution Lᵀ x = z, each row's sum running in index order as in
/// factor_lanes, then a division by the diagonal. b lands in rhs[i], x in
/// sol[i]. Returns bit l set when lane l's x is finite throughout; the
/// result of a lane whose factor failed is meaningless.
unsigned solve_lanes(const LaneCell* l, std::size_t ka, const double* xty,
                     const std::size_t* index, LaneCell* rhs,
                     LaneCell* sol) noexcept;

/// Batcher's odd-even merge sort over bit_ceil(rows) rows into `out`
/// (replaced; its capacity is kept), minus the pairs whose upper row lies
/// at or past `rows`: padding rows would hold +∞, so those pairs never
/// swap. Throws std::length_error when rows does not fit a SortPair.
void sort_network(std::size_t rows, std::vector<SortPair>& out);

// ---- per-tier tables (defined in kernels_<tier>.cpp) ------------------
// Null when the build could not compile the tier's instructions; the
// dispatcher then reports the tier as not compiled (dispatch.h).
const KernelTable* table_scalar() noexcept;
const KernelTable* table_sse2() noexcept;
const KernelTable* table_avx2() noexcept;
const KernelTable* table_avx512() noexcept;
const KernelTable* table_neon() noexcept;

}  // namespace litmus::ts::simd

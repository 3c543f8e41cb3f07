// Bit-identity property tests for the dispatched SIMD kernels: every tier
// that compiled AND runs on this host must reproduce the scalar tier's
// results exactly — same bits, not "close" — across odd sizes, unaligned
// tails, all-missing columns, and tie-heavy inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tsmath/random.h"
#include "tsmath/simd/dispatch.h"
#include "tsmath/simd/kernels.h"
#include "tsmath/timeseries.h"

namespace litmus::ts::simd {
namespace {

std::vector<const KernelTable*> testable_tiers() {
  std::vector<const KernelTable*> out;
  const KernelTable* tables[] = {table_sse2(), table_avx2(), table_avx512(),
                                 table_neon()};
  const Tier tiers[] = {Tier::kSse2, Tier::kAvx2, Tier::kAvx512,
                        Tier::kNeon};
  for (int i = 0; i < 4; ++i) {
    if (tables[i] != nullptr && tier_supported(tiers[i]))
      out.push_back(tables[i]);
  }
  return out;
}

// Sizes that exercise every tail residue mod 8 plus multi-block bodies.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                              15, 16, 17, 23, 31, 32, 33, 63, 64, 65,
                              100, 127, 128, 129, 255, 1000};

std::vector<double> draw(Rng& rng, std::size_t n, double missing_p,
                         bool ties) {
  std::vector<double> out(n);
  for (auto& v : out) {
    if (missing_p > 0.0 && rng.uniform(0.0, 1.0) < missing_p) {
      v = kMissing;
    } else if (ties) {
      v = std::round(rng.normal() * 2.0) / 2.0;
    } else {
      v = rng.normal() * 3.0 + rng.uniform(-1.0, 1.0);
    }
  }
  return out;
}

// Bit-level equality that also matches NaN payloads.
::testing::AssertionResult same_bits(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, 8);
  std::memcpy(&ub, &b, 8);
  if (ua == ub) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits differ by " << (ua ^ ub) << ")";
}

TEST(SimdKernels, SumDotBitIdentical) {
  const auto tiers = testable_tiers();
  const KernelTable* sc = table_scalar();
  ASSERT_NE(sc, nullptr);
  Rng rng(20260808);
  for (const std::size_t n : kSizes) {
    // +3 head slack so we can probe deliberately unaligned base pointers.
    auto a = draw(rng, n + 3, 0.0, false);
    auto b = draw(rng, n + 3, 0.0, false);
    for (std::size_t off = 0; off < 3; ++off) {
      const double s0 = sc->sum(a.data() + off, n);
      const double d0 = sc->dot(a.data() + off, b.data() + off, n);
      for (const KernelTable* t : tiers) {
        EXPECT_TRUE(same_bits(s0, t->sum(a.data() + off, n)))
            << "sum n=" << n << " off=" << off;
        EXPECT_TRUE(same_bits(d0, t->dot(a.data() + off, b.data() + off, n)))
            << "dot n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernels, GramBitIdentical) {
  const auto tiers = testable_tiers();
  const KernelTable* sc = table_scalar();
  Rng rng(7);
  for (const std::size_t cols : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{5},
                                 std::size_t{8}}) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{33},
          std::size_t{100}, std::size_t{257}}) {
      auto packed = draw(rng, n * cols, 0.0, false);
      const std::size_t gn = (cols + 1) * (cols + 1);
      std::vector<double> g0(gn, 0.0);
      sc->accumulate_gram(packed.data(), n, cols, g0.data());
      for (const KernelTable* t : tiers) {
        std::vector<double> g1(gn, 0.0);
        t->accumulate_gram(packed.data(), n, cols, g1.data());
        for (std::size_t i = 0; i < gn; ++i) {
          EXPECT_TRUE(same_bits(g0[i], g1[i]))
              << "gram cols=" << cols << " n=" << n << " entry=" << i;
        }
      }
    }
  }
}

TEST(SimdKernels, CountCmpMatchesBruteForceAndTiers) {
  const auto tiers = testable_tiers();
  const KernelTable* sc = table_scalar();
  Rng rng(99);
  for (const std::size_t n : kSizes) {
    // Tie-heavy with missing sprinkled in: NaN must count as neither
    // below nor equal, exactly like the brute-force loop below.
    auto ys = draw(rng, n, 0.15, true);
    for (int probe = 0; probe < 8; ++probe) {
      const double x = std::round(rng.normal() * 2.0) / 2.0;
      std::uint64_t below = 0, equal = 0;
      for (const double y : ys) {
        if (y < x) ++below;
        if (y == x) ++equal;
      }
      const CmpCount c0 = sc->count_cmp(ys.data(), n, x);
      EXPECT_EQ(c0.below, below) << "n=" << n;
      EXPECT_EQ(c0.equal, equal) << "n=" << n;
      for (const KernelTable* t : tiers) {
        const CmpCount c1 = t->count_cmp(ys.data(), n, x);
        EXPECT_EQ(c0.below, c1.below) << "n=" << n;
        EXPECT_EQ(c0.equal, c1.equal) << "n=" << n;
      }
    }
  }
}

TEST(SimdKernels, MissingScansAgreeIncludingAllMissing) {
  const auto tiers = testable_tiers();
  const KernelTable* sc = table_scalar();
  Rng rng(5);
  for (const std::size_t n : kSizes) {
    for (const double p : {0.0, 0.3, 1.0}) {  // none / sparse / all-missing
      auto xs = draw(rng, n, p, true);
      const std::size_t words = (n + 63) / 64;
      std::vector<std::uint64_t> b0(words + 1, ~std::uint64_t{0});
      std::vector<std::uint64_t> b1(words + 1, ~std::uint64_t{0});
      sc->scan_missing_bits(xs.data(), n, b0.data());
      std::size_t expect = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool bit = (b0[i / 64] >> (i % 64)) & 1u;
        EXPECT_EQ(bit, is_missing(xs[i])) << "n=" << n << " i=" << i;
        expect += is_missing(xs[i]);
      }
      EXPECT_EQ(sc->count_missing(xs.data(), n), expect);
      for (const KernelTable* t : tiers) {
        t->scan_missing_bits(xs.data(), n, b1.data());
        for (std::size_t w = 0; w < words; ++w)
          EXPECT_EQ(b0[w], b1[w]) << "n=" << n << " word=" << w;
        EXPECT_EQ(t->count_missing(xs.data(), n), expect) << "n=" << n;
      }
      // The word after the bitmap must never be touched.
      EXPECT_EQ(b0[words], ~std::uint64_t{0});
      EXPECT_EQ(b1[words], ~std::uint64_t{0});
    }
  }
}

// The prediction kernel against the column-by-column loop it replaced:
// every row starts at the intercept and adds its columns in `cols` order,
// so scalar, every tier and the old loop agree bit for bit, at every row
// count (32-row passes, 8-row blocks, scalar tail), at every k the
// sampling loop uses (27 and 42 are the corpus and paper shapes), from
// unaligned bases, with columns picked out of order. A row with a NaN
// regressor must forecast NaN.
TEST(SimdKernels, PredictBitIdentical) {
  const auto tiers = testable_tiers();
  const KernelTable* sc = table_scalar();
  constexpr std::size_t kCols = 60;
  Rng rng(31);
  for (const std::size_t n : kSizes) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{27},
                                std::size_t{42}}) {
      // Distinct and out of order (7 is coprime to 60), so the kernel
      // must follow `cols`, not the design's column order.
      std::vector<std::size_t> cols(k);
      for (std::size_t i = 0; i < k; ++i) cols[i] = (7 * i + 3) % kCols;
      const auto coef = draw(rng, k, 0.0, false);
      const double intercept = rng.normal() * 10.0;
      // +3 head slack so we can probe deliberately unaligned bases.
      auto x = draw(rng, kCols * n + 3, 0.02, false);
      for (std::size_t off = 0; off < 3; ++off) {
        const double* base = x.data() + off;
        std::vector<double> old(n, intercept);
        for (std::size_t i = 0; i < k; ++i)
          for (std::size_t r = 0; r < n; ++r)
            old[r] += coef[i] * base[cols[i] * n + r];
        std::vector<const KernelTable*> all = tiers;
        all.push_back(sc);
        for (const KernelTable* t : all) {
          std::vector<double> out(n + 1, -7.0);
          t->predict(base, n, cols.data(), coef.data(), k, intercept,
                     out.data());
          for (std::size_t r = 0; r < n; ++r) {
            if (is_missing(old[r])) {
              EXPECT_TRUE(is_missing(out[r])) << "n=" << n << " k=" << k;
            } else {
              EXPECT_TRUE(same_bits(old[r], out[r]))
                  << "n=" << n << " k=" << k << " off=" << off
                  << " row=" << r;
            }
          }
          EXPECT_EQ(out[n], -7.0) << "wrote past the last row";
        }
      }
    }
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, 8);
  return u;
}

// The sorting network by the 0-1 principle: a comparator network sorts
// every input iff it sorts every input of zeros and ones. Each uint64
// carries 64 such inputs bit-sliced (bit t of row i is row i of input
// t), a compare-exchange is (lo & hi, lo | hi), and every input of up to
// 20 rows is tried.
TEST(SimdKernels, SortNetworkSortsEveryZeroOneInput) {
  constexpr std::uint64_t kLowRows[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  std::vector<SortPair> network;
  std::vector<std::uint64_t> word;
  for (std::size_t rows = 0; rows <= 20; ++rows) {
    sort_network(rows, network);
    for (const SortPair& p : network) {
      ASSERT_LT(p.lo, p.hi);
      ASSERT_LT(p.hi, rows);
    }
    const std::uint64_t batches =
        rows <= 6 ? 1 : std::uint64_t{1} << (rows - 6);
    word.resize(rows);
    for (std::uint64_t b = 0; b < batches; ++b) {
      for (std::size_t i = 0; i < rows; ++i)
        word[i] = i < 6 ? kLowRows[i] : ((b >> (i - 6)) & 1u) ? ~0ULL : 0;
      for (const SortPair& p : network) {
        const std::uint64_t lo = word[p.lo] & word[p.hi];
        word[p.hi] |= word[p.lo];
        word[p.lo] = lo;
      }
      for (std::size_t i = 0; i + 1 < rows; ++i)
        ASSERT_EQ(word[i] & ~word[i + 1], 0u)
            << "rows=" << rows << " batch=" << b << " row=" << i;
    }
  }
}

// The lane sort on every tier against the scalar tier (same bits) and
// against std::sort of each lane (same values): every row count from 0
// to 130 (1, 2, the powers of two, 129 past one), cells drawn with NaN,
// ±∞, ±0 and heavy ties, read from a 13-double stride off an unaligned
// base. Each lane must come out a permutation of its own cells (NaN as
// +∞), with its non-NaN count, and nothing past the output is written.
TEST(SimdKernels, SortLanesBitIdentical) {
  const auto tiers = testable_tiers();
  const KernelTable* sc = table_scalar();
  constexpr std::size_t kStride = 13;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kGuard = -7.0;
  Rng rng(43);
  std::vector<SortPair> network;
  for (std::size_t rows = 0; rows <= 130; ++rows) {
    sort_network(rows, network);
    // One double of head slack puts the block off 16-byte alignment.
    std::vector<double> block(1 + rows * kStride);
    for (double& v : block) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.1) {
        v = kMissing;
      } else if (u < 0.13) {
        v = kInf;
      } else if (u < 0.16) {
        v = -kInf;
      } else if (u < 0.22) {
        v = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
      } else {
        v = std::round(rng.normal() * 2.0) / 2.0;
      }
    }
    const double* in = block.data() + 1;

    std::vector<double> want(rows * 8);
    std::size_t want_count[8] = {};
    for (std::size_t j = 0; j < 8; ++j) {
      std::vector<double> lane(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const double v = in[r * kStride + j];
        want_count[j] += is_missing(v) ? 0 : 1;
        lane[r] = is_missing(v) ? kInf : v;
      }
      std::sort(lane.begin(), lane.end());
      for (std::size_t r = 0; r < rows; ++r) want[r * 8 + j] = lane[r];
    }

    std::vector<double> ref(rows * 8 + 8, kGuard);
    std::size_t ref_count[8];
    sc->sort_lanes(in, kStride, rows, network.data(), network.size(),
                   ref.data(), ref_count);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(ref_count[j], want_count[j]) << "rows=" << rows << " j=" << j;
      std::vector<std::uint64_t> got_bits(rows), in_bits(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(ref[r * 8 + j], want[r * 8 + j])
            << "rows=" << rows << " lane=" << j << " rank=" << r;
        got_bits[r] = bits_of(ref[r * 8 + j]);
        const double v = in[r * kStride + j];
        in_bits[r] = bits_of(is_missing(v) ? kInf : v);
      }
      std::sort(got_bits.begin(), got_bits.end());
      std::sort(in_bits.begin(), in_bits.end());
      EXPECT_EQ(got_bits, in_bits) << "rows=" << rows << " lane=" << j;
    }
    for (std::size_t i = rows * 8; i < ref.size(); ++i)
      EXPECT_TRUE(same_bits(ref[i], kGuard)) << "wrote past the output";

    for (const KernelTable* t : tiers) {
      std::vector<double> out(rows * 8 + 8, kGuard);
      std::size_t count[8];
      t->sort_lanes(in, kStride, rows, network.data(), network.size(),
                    out.data(), count);
      for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_TRUE(same_bits(ref[i], out[i])) << "rows=" << rows << " i=" << i;
      for (std::size_t j = 0; j < 8; ++j)
        EXPECT_EQ(count[j], ref_count[j]) << "rows=" << rows << " j=" << j;
    }
  }
}

// The one-system Cholesky factor and triangular solves that the subset
// kernels replaced, copied here as the reference every lane must match bit
// for bit: gather the sub-Gram, take its largest diagonal with std::max,
// refuse unless it is positive, set the pivot floor at 1e-12 of it, then
// the left-looking column loop, each sum with t ascending.
bool one_system_factor(const double* g, std::size_t stride,
                       const std::size_t* idx, std::size_t ka,
                       std::vector<double>& l) {
  l.assign(ka * ka, 0.0);
  for (std::size_t i = 0; i < ka; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      l[i * ka + j] = g[idx[i] * stride + idx[j]];
  double max_diag = 0.0;
  for (std::size_t i = 0; i < ka; ++i)
    max_diag = std::max(max_diag, l[i * ka + i]);
  if (!(max_diag > 0.0)) return false;
  const double pivot_floor = 1e-12 * max_diag;
  for (std::size_t j = 0; j < ka; ++j) {
    double d = l[j * ka + j];
    for (std::size_t t = 0; t < j; ++t) d -= l[j * ka + t] * l[j * ka + t];
    if (!(d > pivot_floor)) return false;
    const double piv = std::sqrt(d);
    l[j * ka + j] = piv;
    for (std::size_t i = j + 1; i < ka; ++i) {
      double s = l[i * ka + j];
      for (std::size_t t = 0; t < j; ++t) s -= l[i * ka + t] * l[j * ka + t];
      l[i * ka + j] = s / piv;
    }
  }
  return true;
}

void one_system_solve(const std::vector<double>& l, std::size_t ka,
                      const double* xty, const std::size_t* idx,
                      std::vector<double>& rhs, std::vector<double>& sol) {
  rhs.resize(ka);
  sol.resize(ka);
  for (std::size_t i = 0; i < ka; ++i) rhs[i] = xty[idx[i]];
  for (std::size_t i = 0; i < ka; ++i) {
    double s = rhs[i];
    for (std::size_t t = 0; t < i; ++t) s -= l[i * ka + t] * sol[t];
    sol[i] = s / l[i * ka + i];
  }
  for (std::size_t i = ka; i-- > 0;) {
    double s = sol[i];
    for (std::size_t t = i + 1; t < ka; ++t) s -= l[t * ka + i] * sol[t];
    sol[i] = s / l[i * ka + i];
  }
}

// One call of the subset kernels: an augmented Gram (index 0 the
// intercept) of a random design, and 8 lanes of indices into it. Lanes
// from `used` on repeat lane 0, as a partial batch pads them.
struct LaneCase {
  std::size_t aug = 0;
  std::size_t ka = 0;
  std::size_t used = 0;
  std::vector<double> g;
  std::vector<std::size_t> index;
  std::vector<double> xty;
  std::string what;
};

// Every unknown count 1-70, with and without the intercept, 1-8 used
// lanes. Every fifth count makes design columns 0 and 1 collinear to 1e-9,
// and gives the even lanes both of them: their pivots fall under the floor
// and the odd lanes' do not. Every seventh puts NaN, +∞ or −∞ on the
// diagonal at augmented index 3, which the lanes l ≡ 1 mod 3 include.
std::vector<LaneCase> lane_cases() {
  std::vector<LaneCase> out;
  Rng rng(2026);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t ka = 1; ka <= 70; ++ka) {
    for (const bool intercept : {true, false}) {
      LaneCase c;
      c.ka = ka;
      c.used = 1 + (ka + (intercept ? 1 : 0)) % 8;
      const std::size_t cols = ka + 4;
      c.aug = cols + 1;
      const std::size_t rows = 2 * cols + 10;
      const bool collinear = ka % 5 == 0 && ka >= 3;
      const bool bad_diag = ka % 7 == 0 && ka >= 4;
      std::vector<double> packed(rows * cols);
      for (double& v : packed) v = rng.normal() + 0.5;
      if (collinear)
        for (std::size_t r = 0; r < rows; ++r)
          packed[rows + r] = packed[r] + 1e-9 * rng.normal();
      c.g.assign(c.aug * c.aug, 0.0);
      table_scalar()->accumulate_gram(packed.data(), rows, cols, c.g.data());
      if (bad_diag) {
        const double v[] = {kMissing, kInf, -kInf};
        c.g[3 * c.aug + 3] = v[(ka / 7) % 3];
      }
      c.xty = draw(rng, c.aug, 0.0, false);
      c.index.resize(8 * ka);
      for (std::size_t lane = 0; lane < 8; ++lane) {
        std::size_t* idx = c.index.data() + lane * ka;
        if (lane >= c.used) {
          std::copy(c.index.begin(), c.index.begin() + ka, idx);
          continue;
        }
        // A shuffled pick of ka distinct indices (index 0 first with the
        // intercept), then the case's forced members swapped in.
        std::vector<std::size_t> pool;
        for (std::size_t i = intercept ? 1 : 0; i < c.aug; ++i)
          pool.push_back(i);
        for (std::size_t i = pool.size(); i > 1; --i)
          std::swap(pool[i - 1],
                    pool[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                                  static_cast<double>(i)) %
                         i]);
        std::vector<std::size_t> pick;
        if (intercept) pick.push_back(0);
        const auto has = [&](std::size_t v) {
          return std::find(pick.begin(), pick.end(), v) != pick.end();
        };
        std::vector<std::size_t> want, avoid;
        if (collinear) (lane % 2 == 0 ? want : avoid) = {1, 2};
        if (bad_diag) (lane % 3 == 1 ? want : avoid).push_back(3);
        for (const std::size_t v : want)
          if (pick.size() < ka && !has(v)) pick.push_back(v);
        for (const std::size_t v : pool) {
          if (pick.size() == ka) break;
          const bool avoided =
              std::find(avoid.begin(), avoid.end(), v) != avoid.end() &&
              (v == 3 || has(v == 1 ? 2 : 1));
          if (!has(v) && !avoided) pick.push_back(v);
        }
        EXPECT_EQ(pick.size(), ka);
        std::copy(pick.begin(), pick.end(), idx);
      }
      c.what = "ka=" + std::to_string(ka) +
               (intercept ? " intercept" : " no intercept") +
               " used=" + std::to_string(c.used) +
               (collinear ? " collinear" : "") + (bad_diag ? " bad-diag" : "");
      out.push_back(std::move(c));
    }
  }
  return out;
}

// The subset factor on every tier against the scalar tier and against the
// one-system reference: the same refusals lane by lane, and in every lane
// that is not refused the same bits in every cell of L.
TEST(SimdKernels, FactorLanesBitIdentical) {
  std::vector<const KernelTable*> all = testable_tiers();
  all.insert(all.begin(), table_scalar());
  std::size_t accepted = 0, refused = 0;
  std::vector<double> ref;
  for (const LaneCase& c : lane_cases()) {
    SCOPED_TRACE(c.what);
    const std::size_t ka = c.ka;
    std::vector<LaneCell> scalar_l(ka * ka);
    const unsigned scalar_ok = table_scalar()->factor_lanes(
        c.g.data(), c.aug, c.index.data(), ka, scalar_l.data());
    for (std::size_t lane = 0; lane < 8; ++lane) {
      const bool ok = one_system_factor(c.g.data(), c.aug,
                                        c.index.data() + lane * ka, ka, ref);
      ASSERT_EQ(((scalar_ok >> lane) & 1u) != 0, ok) << "lane " << lane;
      if (lane < c.used) ++(ok ? accepted : refused);
      if (!ok) continue;
      for (std::size_t i = 0; i < ka; ++i)
        for (std::size_t j = 0; j <= i; ++j)
          ASSERT_TRUE(same_bits(ref[i * ka + j],
                                scalar_l[i * ka + j].lane[lane]))
              << "lane " << lane << " L(" << i << ", " << j << ")";
    }
    for (const KernelTable* t : all) {
      std::vector<LaneCell> l(ka * ka);
      ASSERT_EQ(t->factor_lanes(c.g.data(), c.aug, c.index.data(), ka,
                                l.data()),
                scalar_ok);
      for (std::size_t lane = 0; lane < 8; ++lane) {
        if (!((scalar_ok >> lane) & 1u)) continue;
        for (std::size_t i = 0; i < ka; ++i)
          for (std::size_t j = 0; j <= i; ++j)
            ASSERT_TRUE(same_bits(scalar_l[i * ka + j].lane[lane],
                                  l[i * ka + j].lane[lane]))
                << "lane " << lane << " L(" << i << ", " << j << ")";
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

// The triangular solves on every tier, each on its own tier's factor,
// against the scalar tier and the one-system reference: in every lane whose
// factor was accepted, the same right-hand side and solution bits, and the
// same finiteness. An infinite X̃ᵀy entry, read by the lanes whose subset
// includes it, makes their solution non-finite.
TEST(SimdKernels, SolveLanesBitIdentical) {
  std::vector<const KernelTable*> all = testable_tiers();
  all.insert(all.begin(), table_scalar());
  std::size_t finite = 0, not_finite = 0;
  std::vector<double> ref_l, ref_rhs, ref_sol;
  for (LaneCase& c : lane_cases()) {
    SCOPED_TRACE(c.what);
    const std::size_t ka = c.ka;
    if (ka % 3 == 0)
      c.xty[c.index[ka - 1]] = -std::numeric_limits<double>::infinity();
    std::vector<LaneCell> l(ka * ka), rhs(ka), sol(ka);
    const unsigned ok = table_scalar()->factor_lanes(
        c.g.data(), c.aug, c.index.data(), ka, l.data());
    const unsigned scalar_finite = table_scalar()->solve_lanes(
        l.data(), ka, c.xty.data(), c.index.data(), rhs.data(), sol.data());
    for (std::size_t lane = 0; lane < 8; ++lane) {
      if (!((ok >> lane) & 1u)) continue;
      const std::size_t* idx = c.index.data() + lane * ka;
      ASSERT_TRUE(one_system_factor(c.g.data(), c.aug, idx, ka, ref_l));
      one_system_solve(ref_l, ka, c.xty.data(), idx, ref_rhs, ref_sol);
      const bool ref_finite =
          std::all_of(ref_sol.begin(), ref_sol.end(),
                      [](double v) { return std::isfinite(v); });
      ASSERT_EQ(((scalar_finite >> lane) & 1u) != 0, ref_finite)
          << "lane " << lane;
      if (lane < c.used) ++(ref_finite ? finite : not_finite);
      for (std::size_t i = 0; i < ka; ++i) {
        ASSERT_TRUE(same_bits(ref_rhs[i], rhs[i].lane[lane]))
            << "lane " << lane;
        ASSERT_TRUE(same_bits(ref_sol[i], sol[i].lane[lane]))
            << "lane " << lane << " x" << i;
      }
    }
    for (const KernelTable* t : all) {
      std::vector<LaneCell> tl(ka * ka), trhs(ka), tsol(ka);
      ASSERT_EQ(t->factor_lanes(c.g.data(), c.aug, c.index.data(), ka,
                                tl.data()),
                ok);
      const unsigned t_finite =
          t->solve_lanes(tl.data(), ka, c.xty.data(), c.index.data(),
                         trhs.data(), tsol.data());
      ASSERT_EQ(t_finite & ok, scalar_finite & ok);
      for (std::size_t lane = 0; lane < 8; ++lane) {
        if (!((ok >> lane) & 1u)) continue;
        for (std::size_t i = 0; i < ka; ++i) {
          ASSERT_TRUE(same_bits(rhs[i].lane[lane], trhs[i].lane[lane]));
          ASSERT_TRUE(same_bits(sol[i].lane[lane], tsol[i].lane[lane]))
              << "lane " << lane << " x" << i;
        }
      }
    }
  }
  EXPECT_GT(finite, 0u);
  EXPECT_GT(not_finite, 0u);
}

TEST(SimdDispatch, ParseAndNames) {
  EXPECT_EQ(parse_tier("scalar"), Tier::kScalar);
  EXPECT_EQ(parse_tier("sse2"), Tier::kSse2);
  EXPECT_EQ(parse_tier("avx2"), Tier::kAvx2);
  EXPECT_EQ(parse_tier("avx512"), Tier::kAvx512);
  EXPECT_EQ(parse_tier("neon"), Tier::kNeon);
  EXPECT_FALSE(parse_tier("sse4").has_value());
  EXPECT_FALSE(parse_tier("").has_value());
  for (int i = 0; i < kTierCount; ++i) {
    const Tier t = static_cast<Tier>(i);
    EXPECT_EQ(parse_tier(tier_name(t)), t);
  }
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndSwitchable) {
  EXPECT_TRUE(tier_compiled(Tier::kScalar));
  EXPECT_TRUE(tier_supported(Tier::kScalar));
  EXPECT_TRUE(tier_supported(detected_tier()));
  const Tier before = active_tier();
  ASSERT_TRUE(set_active_tier(Tier::kScalar));
  EXPECT_EQ(active_tier(), Tier::kScalar);
  EXPECT_EQ(&kernels(), table_scalar());
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_FALSE(set_active_tier(Tier::kNeon));  // never supported on x86
  EXPECT_EQ(active_tier(), Tier::kScalar);     // failed set leaves state
#endif
  ASSERT_TRUE(set_active_tier(before));
  EXPECT_EQ(active_tier(), before);
}

}  // namespace
}  // namespace litmus::ts::simd

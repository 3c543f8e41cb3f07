// Per-ISA 8-lane double "block" types behind the SIMD kernel layer.
//
// Every kernel in kernels_generic.h is written once against this
// interface and instantiated per tier; a block always models the SAME
// logical shape — 8 doubles, lane j holding row r+j of the current
// 8-row span — regardless of how many hardware registers back it
// (AVX-512: one, AVX2: two, SSE2/NEON: four, scalar: eight doubles).
// Because each lane performs the identical IEEE-754 operation sequence
// in every tier, instantiations are bit-identical to each other. No
// block fuses a multiply-add: SSE2 has no FMA to match it with.
//
// Everything here lives in an ANONYMOUS namespace on purpose: each tier
// translation unit is compiled with different -m flags, so letting the
// linker merge instantiations across TUs (the default for inline/weak
// symbols) could hand the scalar table code compiled for AVX-512 —
// an illegal instruction on older hosts. Internal linkage keeps every
// TU's copy private to it. This header must only be included from the
// kernels_*.cpp tier files.
//
// Tier guards key off the compiler's own macros (__AVX2__ et al.), which
// the per-file -m options in src/tsmath/CMakeLists.txt define; a type is
// simply absent in builds that cannot emit its instructions.
//
// Two operations serve the sorting network (kernels_generic.h):
// load_nan_as_inf() loads a block with every NaN lane replaced by +∞ and
// reports which lanes were NaN, and exchange(a, b) swaps a and b in the
// lanes where b < a. The exchange selects whole lanes rather than taking
// min/max, so −0.0 and +0.0 never merge and every lane keeps its own
// values.
#pragma once

#include <cstddef>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace litmus::ts::simd {
namespace {

// ---------------------------------------------------------------- scalar
// Eight plain doubles. The reference tier: every other block type must
// match it bit for bit through madd/store, mask for mask through the
// compare interface.
struct ScalarBlock {
  double l[8];

  static ScalarBlock zero() noexcept {
    return ScalarBlock{{0, 0, 0, 0, 0, 0, 0, 0}};
  }
  static ScalarBlock load(const double* p) noexcept {
    ScalarBlock b;
    for (int j = 0; j < 8; ++j) b.l[j] = p[j];
    return b;
  }
  static ScalarBlock broadcast(double x) noexcept {
    ScalarBlock b;
    for (int j = 0; j < 8; ++j) b.l[j] = x;
    return b;
  }
  void madd(const ScalarBlock& a, const ScalarBlock& b) noexcept {
    for (int j = 0; j < 8; ++j) l[j] += a.l[j] * b.l[j];
  }
  void store(double* out) const noexcept {
    for (int j = 0; j < 8; ++j) out[j] = l[j];
  }
  unsigned lt_mask(const ScalarBlock& x) const noexcept {
    unsigned m = 0;
    for (int j = 0; j < 8; ++j) m |= (l[j] < x.l[j] ? 1u : 0u) << j;
    return m;
  }
  unsigned eq_mask(const ScalarBlock& x) const noexcept {
    unsigned m = 0;
    for (int j = 0; j < 8; ++j) m |= (l[j] == x.l[j] ? 1u : 0u) << j;
    return m;
  }
  unsigned nan_mask() const noexcept {
    unsigned m = 0;
    for (int j = 0; j < 8; ++j) m |= (l[j] != l[j] ? 1u : 0u) << j;
    return m;
  }
  static ScalarBlock load_nan_as_inf(const double* p,
                                     unsigned& nan_bits) noexcept {
    ScalarBlock b = load(p);
    nan_bits = b.nan_mask();
    for (int j = 0; j < 8; ++j)
      if (b.l[j] != b.l[j]) b.l[j] = std::numeric_limits<double>::infinity();
    return b;
  }
  // Selects rather than branches: a network's exchanges swap about half
  // the time on unordered data, which a branch would mispredict.
  static void exchange(ScalarBlock& a, ScalarBlock& b) noexcept {
    for (int j = 0; j < 8; ++j) {
      const bool swap = b.l[j] < a.l[j];
      const double lo = swap ? b.l[j] : a.l[j];
      b.l[j] = swap ? a.l[j] : b.l[j];
      a.l[j] = lo;
    }
  }
};

// ------------------------------------------------------------------ sse2
#if defined(__SSE2__)
struct Sse2Block {
  __m128d v[4];  // lanes {0,1}, {2,3}, {4,5}, {6,7}

  static Sse2Block zero() noexcept {
    Sse2Block b;
    for (int i = 0; i < 4; ++i) b.v[i] = _mm_setzero_pd();
    return b;
  }
  static Sse2Block load(const double* p) noexcept {
    Sse2Block b;
    for (int i = 0; i < 4; ++i) b.v[i] = _mm_loadu_pd(p + 2 * i);
    return b;
  }
  static Sse2Block broadcast(double x) noexcept {
    Sse2Block b;
    for (int i = 0; i < 4; ++i) b.v[i] = _mm_set1_pd(x);
    return b;
  }
  void madd(const Sse2Block& a, const Sse2Block& b) noexcept {
    for (int i = 0; i < 4; ++i)
      v[i] = _mm_add_pd(v[i], _mm_mul_pd(a.v[i], b.v[i]));
  }
  void store(double* out) const noexcept {
    for (int i = 0; i < 4; ++i) _mm_storeu_pd(out + 2 * i, v[i]);
  }
  unsigned lt_mask(const Sse2Block& x) const noexcept {
    unsigned m = 0;
    for (int i = 0; i < 4; ++i)
      m |= static_cast<unsigned>(_mm_movemask_pd(_mm_cmplt_pd(v[i], x.v[i])))
           << (2 * i);
    return m;
  }
  unsigned eq_mask(const Sse2Block& x) const noexcept {
    unsigned m = 0;
    for (int i = 0; i < 4; ++i)
      m |= static_cast<unsigned>(_mm_movemask_pd(_mm_cmpeq_pd(v[i], x.v[i])))
           << (2 * i);
    return m;
  }
  unsigned nan_mask() const noexcept {
    unsigned m = 0;
    for (int i = 0; i < 4; ++i)
      m |= static_cast<unsigned>(_mm_movemask_pd(_mm_cmpunord_pd(v[i], v[i])))
           << (2 * i);
    return m;
  }
  // SSE2 has no blendv: select through and/andnot/or.
  static __m128d select(__m128d m, __m128d if_set, __m128d if_clear) noexcept {
    return _mm_or_pd(_mm_and_pd(m, if_set), _mm_andnot_pd(m, if_clear));
  }
  static Sse2Block load_nan_as_inf(const double* p,
                                   unsigned& nan_bits) noexcept {
    const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
    Sse2Block b;
    nan_bits = 0;
    for (int i = 0; i < 4; ++i) {
      const __m128d x = _mm_loadu_pd(p + 2 * i);
      const __m128d nan = _mm_cmpunord_pd(x, x);
      nan_bits |= static_cast<unsigned>(_mm_movemask_pd(nan)) << (2 * i);
      b.v[i] = select(nan, inf, x);
    }
    return b;
  }
  static void exchange(Sse2Block& a, Sse2Block& b) noexcept {
    for (int i = 0; i < 4; ++i) {
      const __m128d swap = _mm_cmplt_pd(b.v[i], a.v[i]);
      const __m128d lo = select(swap, b.v[i], a.v[i]);
      b.v[i] = select(swap, a.v[i], b.v[i]);
      a.v[i] = lo;
    }
  }
};
#endif  // __SSE2__

// ------------------------------------------------------------------ avx2
#if defined(__AVX2__)
struct Avx2Block {
  __m256d v[2];  // lanes {0..3}, {4..7}

  static Avx2Block zero() noexcept {
    return Avx2Block{{_mm256_setzero_pd(), _mm256_setzero_pd()}};
  }
  static Avx2Block load(const double* p) noexcept {
    return Avx2Block{{_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)}};
  }
  static Avx2Block broadcast(double x) noexcept {
    return Avx2Block{{_mm256_set1_pd(x), _mm256_set1_pd(x)}};
  }
  // Separate multiply and add: one rounding each, exactly like the scalar
  // reference.
  void madd(const Avx2Block& a, const Avx2Block& b) noexcept {
    v[0] = _mm256_add_pd(v[0], _mm256_mul_pd(a.v[0], b.v[0]));
    v[1] = _mm256_add_pd(v[1], _mm256_mul_pd(a.v[1], b.v[1]));
  }
  void store(double* out) const noexcept {
    _mm256_storeu_pd(out, v[0]);
    _mm256_storeu_pd(out + 4, v[1]);
  }
  unsigned lt_mask(const Avx2Block& x) const noexcept {
    const unsigned lo = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v[0], x.v[0], _CMP_LT_OQ)));
    const unsigned hi = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v[1], x.v[1], _CMP_LT_OQ)));
    return lo | (hi << 4);
  }
  unsigned eq_mask(const Avx2Block& x) const noexcept {
    const unsigned lo = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v[0], x.v[0], _CMP_EQ_OQ)));
    const unsigned hi = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v[1], x.v[1], _CMP_EQ_OQ)));
    return lo | (hi << 4);
  }
  unsigned nan_mask() const noexcept {
    const unsigned lo = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v[0], v[0], _CMP_UNORD_Q)));
    const unsigned hi = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v[1], v[1], _CMP_UNORD_Q)));
    return lo | (hi << 4);
  }
  static Avx2Block load_nan_as_inf(const double* p,
                                   unsigned& nan_bits) noexcept {
    const __m256d inf =
        _mm256_set1_pd(std::numeric_limits<double>::infinity());
    Avx2Block b;
    nan_bits = 0;
    for (int i = 0; i < 2; ++i) {
      const __m256d x = _mm256_loadu_pd(p + 4 * i);
      const __m256d nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
      nan_bits |= static_cast<unsigned>(_mm256_movemask_pd(nan)) << (4 * i);
      b.v[i] = _mm256_blendv_pd(x, inf, nan);
    }
    return b;
  }
  static void exchange(Avx2Block& a, Avx2Block& b) noexcept {
    for (int i = 0; i < 2; ++i) {
      const __m256d swap = _mm256_cmp_pd(b.v[i], a.v[i], _CMP_LT_OQ);
      const __m256d lo = _mm256_blendv_pd(a.v[i], b.v[i], swap);
      b.v[i] = _mm256_blendv_pd(b.v[i], a.v[i], swap);
      a.v[i] = lo;
    }
  }
};
#endif  // __AVX2__

// ---------------------------------------------------------------- avx512
#if defined(__AVX512F__)
struct Avx512Block {
  __m512d v;  // lanes 0..7 in one register

  static Avx512Block zero() noexcept {
    return Avx512Block{_mm512_setzero_pd()};
  }
  static Avx512Block load(const double* p) noexcept {
    return Avx512Block{_mm512_loadu_pd(p)};
  }
  static Avx512Block broadcast(double x) noexcept {
    return Avx512Block{_mm512_set1_pd(x)};
  }
  void madd(const Avx512Block& a, const Avx512Block& b) noexcept {
    v = _mm512_add_pd(v, _mm512_mul_pd(a.v, b.v));
  }
  void store(double* out) const noexcept { _mm512_storeu_pd(out, v); }
  unsigned lt_mask(const Avx512Block& x) const noexcept {
    return _mm512_cmp_pd_mask(v, x.v, _CMP_LT_OQ);
  }
  unsigned eq_mask(const Avx512Block& x) const noexcept {
    return _mm512_cmp_pd_mask(v, x.v, _CMP_EQ_OQ);
  }
  unsigned nan_mask() const noexcept {
    return _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q);
  }
  static Avx512Block load_nan_as_inf(const double* p,
                                     unsigned& nan_bits) noexcept {
    const __m512d x = _mm512_loadu_pd(p);
    const __mmask8 nan = _mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q);
    nan_bits = nan;
    return Avx512Block{_mm512_mask_mov_pd(
        x, nan, _mm512_set1_pd(std::numeric_limits<double>::infinity()))};
  }
  static void exchange(Avx512Block& a, Avx512Block& b) noexcept {
    const __mmask8 swap = _mm512_cmp_pd_mask(b.v, a.v, _CMP_LT_OQ);
    const __m512d lo = _mm512_mask_blend_pd(swap, a.v, b.v);
    b.v = _mm512_mask_blend_pd(swap, b.v, a.v);
    a.v = lo;
  }
};
#endif  // __AVX512F__

// ------------------------------------------------------------------ neon
#if defined(__aarch64__)
struct NeonBlock {
  float64x2_t v[4];  // lanes {0,1}, {2,3}, {4,5}, {6,7}

  static NeonBlock zero() noexcept {
    NeonBlock b;
    for (int i = 0; i < 4; ++i) b.v[i] = vdupq_n_f64(0.0);
    return b;
  }
  static NeonBlock load(const double* p) noexcept {
    NeonBlock b;
    for (int i = 0; i < 4; ++i) b.v[i] = vld1q_f64(p + 2 * i);
    return b;
  }
  static NeonBlock broadcast(double x) noexcept {
    NeonBlock b;
    for (int i = 0; i < 4; ++i) b.v[i] = vdupq_n_f64(x);
    return b;
  }
  void madd(const NeonBlock& a, const NeonBlock& b) noexcept {
    for (int i = 0; i < 4; ++i)
      v[i] = vaddq_f64(v[i], vmulq_f64(a.v[i], b.v[i]));
  }
  void store(double* out) const noexcept {
    for (int i = 0; i < 4; ++i) vst1q_f64(out + 2 * i, v[i]);
  }
  static unsigned mask2(uint64x2_t m, int shift) noexcept {
    return ((vgetq_lane_u64(m, 0) & 1u) | ((vgetq_lane_u64(m, 1) & 1u) << 1))
           << shift;
  }
  unsigned lt_mask(const NeonBlock& x) const noexcept {
    unsigned m = 0;
    for (int i = 0; i < 4; ++i) m |= mask2(vcltq_f64(v[i], x.v[i]), 2 * i);
    return m;
  }
  unsigned eq_mask(const NeonBlock& x) const noexcept {
    unsigned m = 0;
    for (int i = 0; i < 4; ++i) m |= mask2(vceqq_f64(v[i], x.v[i]), 2 * i);
    return m;
  }
  unsigned nan_mask() const noexcept {
    // NaN is the only value not ordered-equal to itself.
    unsigned m = 0;
    for (int i = 0; i < 4; ++i)
      m |= mask2(vceqq_f64(v[i], v[i]), 2 * i);
    return ~m & 0xffu;
  }
  static NeonBlock load_nan_as_inf(const double* p,
                                   unsigned& nan_bits) noexcept {
    const float64x2_t inf =
        vdupq_n_f64(std::numeric_limits<double>::infinity());
    NeonBlock b;
    unsigned ordered = 0;
    for (int i = 0; i < 4; ++i) {
      const float64x2_t x = vld1q_f64(p + 2 * i);
      const uint64x2_t keep = vceqq_f64(x, x);
      ordered |= mask2(keep, 2 * i);
      b.v[i] = vbslq_f64(keep, x, inf);
    }
    nan_bits = ~ordered & 0xffu;
    return b;
  }
  static void exchange(NeonBlock& a, NeonBlock& b) noexcept {
    for (int i = 0; i < 4; ++i) {
      const uint64x2_t swap = vcltq_f64(b.v[i], a.v[i]);
      const float64x2_t lo = vbslq_f64(swap, b.v[i], a.v[i]);
      b.v[i] = vbslq_f64(swap, a.v[i], b.v[i]);
      a.v[i] = lo;
    }
  }
};
#endif  // __aarch64__

}  // namespace
}  // namespace litmus::ts::simd

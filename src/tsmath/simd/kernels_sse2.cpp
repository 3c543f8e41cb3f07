// SSE2 tier (x86-64 baseline): four 2-lane registers per 8-lane block.
// accumulate_gram and predict come from the scalar table: the 2-lane
// blocks measured slower than scalar on both (DESIGN.md §13).
#include "tsmath/simd/kernels.h"

#if defined(__SSE2__)
#include "tsmath/simd/kernels_generic.h"
#include "tsmath/simd/vec.h"
#endif

namespace litmus::ts::simd {

#if defined(__SSE2__)
const KernelTable* table_sse2() noexcept {
  static const KernelTable table = {
      &sum_impl<Sse2Block>,
      &dot_impl<Sse2Block>,
      table_scalar()->accumulate_gram,
      table_scalar()->predict,
      &count_cmp_impl<Sse2Block>,
      &scan_missing_bits_impl<Sse2Block>,
      &count_missing_impl<Sse2Block>,
      &sort_lanes_impl<Sse2Block>,
      &factor_lanes_impl<Sse2Block>,
      &solve_lanes_impl<Sse2Block>,
  };
  return &table;
}
#else
const KernelTable* table_sse2() noexcept { return nullptr; }
#endif

}  // namespace litmus::ts::simd

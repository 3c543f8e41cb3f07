// AVX-512 tier: one 8-lane register per block, compares straight into
// mask registers. Compiled with -mavx512f -mavx512dq -ffp-contract=off
// (src/tsmath/CMakeLists.txt): AVX-512F has FMA instructions of its own,
// which contraction would otherwise emit.
#include "tsmath/simd/kernels.h"

#if defined(__AVX512F__)
#include "tsmath/simd/kernels_generic.h"
#include "tsmath/simd/vec.h"
#endif

namespace litmus::ts::simd {

#if defined(__AVX512F__)
const KernelTable* table_avx512() noexcept {
  return table_for<Avx512Block>();
}
#else
const KernelTable* table_avx512() noexcept { return nullptr; }
#endif

}  // namespace litmus::ts::simd

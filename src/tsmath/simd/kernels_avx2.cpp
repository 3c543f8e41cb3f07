// AVX2 tier: two 4-lane registers per 8-lane block. Compiled with
// -mavx2 -ffp-contract=off (src/tsmath/CMakeLists.txt): the kernels must
// keep each multiply and add separately rounded, as the scalar tier does.
#include "tsmath/simd/kernels.h"

#if defined(__AVX2__)
#include "tsmath/simd/kernels_generic.h"
#include "tsmath/simd/vec.h"
#endif

namespace litmus::ts::simd {

#if defined(__AVX2__)
const KernelTable* table_avx2() noexcept { return table_for<Avx2Block>(); }
#else
const KernelTable* table_avx2() noexcept { return nullptr; }
#endif

}  // namespace litmus::ts::simd

// Runtime-dispatched SIMD kernel layer for the assessment hot path.
//
// The batch sweep spends its time in a handful of dense inner loops —
// Gram accumulation, the X̃ᵀy GEMV bind, the forecast GEMV (predict),
// Fligner–Policello placement counting, and missing-bitmap scans. Each
// has one implementation per instruction-set *tier*:
//
//   scalar   portable C++, compiled at the build's baseline arch
//   sse2     x86-64 baseline (2-lane doubles)
//   avx2     4-lane doubles (no FMA — see below)
//   avx512   8-lane doubles + mask registers
//   neon     aarch64 baseline (2-lane doubles)
//
// The tier is selected ONCE, lazily, from CPUID/auxval feature detection
// (GCC/Clang __builtin_cpu_supports on x86; NEON is the aarch64
// baseline), overridable for A/B testing with LITMUS_SIMD=scalar|sse2|
// avx2|avx512|neon or `litmus_cli --simd TIER`. Variant object files are
// compiled with the matching -m flags but only ever *called* after the
// runtime check, so one binary runs correctly on any host.
//
// Determinism contract (DESIGN.md §13): every floating-point reduction
// uses the same fixed 8-lane block order in every tier — lane j
// accumulates rows j, j+8, j+16, … of each 8-row block in ascending
// order, the ≤7-row tail folds into lanes 0..rem-1, and the 8 lanes are
// reduced strictly left-to-right. AVX-512 runs it as one 8-wide register,
// AVX2 as two 4-wide, SSE2/NEON as four 2-wide, scalar as eight doubles;
// IEEE-754 makes the per-lane operation sequences identical, so every
// tier produces bit-identical results and LITMUS_SIMD can never flip a
// verdict. The prediction kernel is not a reduction: each output row
// starts at the intercept and adds its columns in index order, the same
// sequence in every tier. No tier uses FMA: SSE2 has none, so a fused
// multiply-add anywhere would break that identity. Counting kernels
// (placements, missing scans) are exact integers and trivially
// order-independent.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace litmus::ts::simd {

enum class Tier { kScalar = 0, kSse2, kAvx2, kAvx512, kNeon };
inline constexpr int kTierCount = 5;

/// Stable lowercase name ("scalar", "sse2", "avx2", "avx512", "neon");
/// the vocabulary of LITMUS_SIMD, --simd, and the manifest.
const char* tier_name(Tier t) noexcept;

/// Parses a tier_name back; nullopt on unknown text.
std::optional<Tier> parse_tier(std::string_view name) noexcept;

/// True when this build contains a real implementation of the tier (e.g.
/// the avx512 translation unit was compiled with AVX-512 support). A
/// compiled-out tier silently aliases the best lower tier, so selecting
/// it is refused rather than lied about.
bool tier_compiled(Tier t) noexcept;

/// True when the running CPU can execute the tier (and it is compiled
/// in). kScalar is always supported.
bool tier_supported(Tier t) noexcept;

/// Best tier the host supports, from CPUID/auxval feature detection.
/// Independent of any override; recorded in the manifest as
/// "simd.detected".
Tier detected_tier() noexcept;

/// The tier kernels actually dispatch through: detected_tier() unless
/// overridden by LITMUS_SIMD (read once, first call) or set_active_tier.
/// Recorded in the manifest as "simd.dispatch".
Tier active_tier() noexcept;

/// Forces the dispatch tier (the --simd flag). Returns false — leaving
/// the active tier unchanged — when the host cannot run `t`.
bool set_active_tier(Tier t) noexcept;

/// One-line arch report for --version / logs, e.g.
/// "detected=avx512 active=avx512 compiled=scalar,sse2,avx2,avx512".
std::string describe();

}  // namespace litmus::ts::simd

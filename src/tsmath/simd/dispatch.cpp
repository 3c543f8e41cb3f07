#include "tsmath/simd/dispatch.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "tsmath/simd/kernels.h"

namespace litmus::ts::simd {
namespace {

const KernelTable* table_of(Tier t) noexcept {
  switch (t) {
    case Tier::kScalar: return table_scalar();
    case Tier::kSse2: return table_sse2();
    case Tier::kAvx2: return table_avx2();
    case Tier::kAvx512: return table_avx512();
    case Tier::kNeon: return table_neon();
  }
  return nullptr;
}

bool cpu_supports(Tier t) noexcept {
  switch (t) {
    case Tier::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Tier::kSse2:
      return true;  // x86-64 baseline
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Tier::kAvx512:
      // F for the arithmetic, DQ for the double-precision mask compares
      // being first-class; both ship together on every AVX-512 server
      // part this targets.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
    case Tier::kNeon:
      return false;
#elif defined(__aarch64__)
    case Tier::kNeon:
      return true;  // aarch64 baseline
    default:
      return false;
#else
    default:
      return false;
#endif
  }
  return false;
}

Tier detect_best() noexcept {
  for (const Tier t :
       {Tier::kAvx512, Tier::kAvx2, Tier::kNeon, Tier::kSse2}) {
    if (tier_supported(t)) return t;
  }
  return Tier::kScalar;
}

struct DispatchState {
  Tier active;
  std::atomic<const KernelTable*> table;
};

// Initial selection: best detected tier, then the LITMUS_SIMD override
// (parsed once; a bad or unsupported value warns on stderr and keeps the
// detected tier, so a stale environment never silently slows or kills a
// run — the CLI flag is the loud path). Immortal for the same reason the
// obs singletons are: worker threads may race static destruction.
DispatchState& state() noexcept {
  static DispatchState* s = [] {
    auto* st = new DispatchState;
    Tier t = detect_best();
    if (const char* env = std::getenv("LITMUS_SIMD")) {
      if (const auto parsed = parse_tier(env); !parsed) {
        std::fprintf(stderr,
                     "warning: LITMUS_SIMD=%s is not a tier name "
                     "(scalar|sse2|avx2|avx512|neon); keeping %s\n",
                     env, tier_name(t));
      } else if (!tier_supported(*parsed)) {
        std::fprintf(stderr,
                     "warning: LITMUS_SIMD=%s is not supported on this "
                     "host/build; keeping %s\n",
                     env, tier_name(t));
      } else {
        t = *parsed;
      }
    }
    st->active = t;
    st->table.store(table_of(t), std::memory_order_relaxed);
    return st;
  }();
  return *s;
}

}  // namespace

const char* tier_name(Tier t) noexcept {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kSse2: return "sse2";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
    case Tier::kNeon: return "neon";
  }
  return "?";
}

std::optional<Tier> parse_tier(std::string_view name) noexcept {
  for (int i = 0; i < kTierCount; ++i) {
    const Tier t = static_cast<Tier>(i);
    if (name == tier_name(t)) return t;
  }
  return std::nullopt;
}

bool tier_compiled(Tier t) noexcept { return table_of(t) != nullptr; }

bool tier_supported(Tier t) noexcept {
  return tier_compiled(t) && cpu_supports(t);
}

Tier detected_tier() noexcept {
  static const Tier t = detect_best();
  return t;
}

Tier active_tier() noexcept { return state().active; }

bool set_active_tier(Tier t) noexcept {
  if (!tier_supported(t)) return false;
  DispatchState& s = state();
  s.active = t;
  s.table.store(table_of(t), std::memory_order_relaxed);
  return true;
}

std::string describe() {
  std::string out = "detected=";
  out += tier_name(detected_tier());
  out += " active=";
  out += tier_name(active_tier());
  out += " compiled=";
  bool first = true;
  for (int i = 0; i < kTierCount; ++i) {
    const Tier t = static_cast<Tier>(i);
    if (!tier_compiled(t)) continue;
    if (!first) out += ",";
    out += tier_name(t);
    first = false;
  }
  return out;
}

const KernelTable& kernels() noexcept {
  return *state().table.load(std::memory_order_relaxed);
}

double sum(std::span<const double> p) noexcept {
  return kernels().sum(p.data(), p.size());
}

double dot(std::span<const double> a, std::span<const double> b) noexcept {
  return kernels().dot(a.data(), b.data(), a.size());
}

void accumulate_gram(const double* packed, std::size_t n, std::size_t cols,
                     double* g) noexcept {
  kernels().accumulate_gram(packed, n, cols, g);
}

void predict(const double* x, std::size_t rows, const std::size_t* cols,
             const double* coef, std::size_t k, double intercept,
             double* out) noexcept {
  kernels().predict(x, rows, cols, coef, k, intercept, out);
}

CmpCount count_cmp(std::span<const double> ys, double x) noexcept {
  return kernels().count_cmp(ys.data(), ys.size(), x);
}

void scan_missing_bits(std::span<const double> p,
                       std::uint64_t* bits) noexcept {
  kernels().scan_missing_bits(p.data(), p.size(), bits);
}

std::size_t count_missing(std::span<const double> p) noexcept {
  return kernels().count_missing(p.data(), p.size());
}

void sort_lanes(const double* in, std::size_t stride, std::size_t rows,
                std::span<const SortPair> network, double* out,
                std::size_t* counts) noexcept {
  kernels().sort_lanes(in, stride, rows, network.data(), network.size(), out,
                       counts);
}

unsigned factor_lanes(const double* g, std::size_t stride,
                      const std::size_t* index, std::size_t ka,
                      LaneCell* l) noexcept {
  return kernels().factor_lanes(g, stride, index, ka, l);
}

unsigned solve_lanes(const LaneCell* l, std::size_t ka, const double* xty,
                     const std::size_t* index, LaneCell* rhs,
                     LaneCell* sol) noexcept {
  return kernels().solve_lanes(l, ka, xty, index, rhs, sol);
}

// The iterative form of Batcher's odd-even merge sort: merge sorted runs
// of p rows, p = 1, 2, 4, … < n, each merge in passes of distance
// k = p, p/2, …, 1 that compare rows i+j and i+j+k when both lie in the
// same run of 2p. Ending the j and i loops at `rows` drops exactly the
// pairs whose upper row is padding.
void sort_network(std::size_t rows, std::vector<SortPair>& out) {
  if (rows > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("sort_network: too many rows");
  out.clear();
  const std::size_t n = std::bit_ceil(rows);
  for (std::size_t p = 1; p < n; p *= 2)
    for (std::size_t k = p; k >= 1; k /= 2)
      for (std::size_t j = k % p; j + k < rows; j += 2 * k)
        for (std::size_t i = 0; i < k && i + j + k < rows; ++i)
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p))
            out.push_back({static_cast<std::uint32_t>(i + j),
                           static_cast<std::uint32_t>(i + j + k)});
}

}  // namespace litmus::ts::simd

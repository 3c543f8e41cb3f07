#include "tsmath/ranks.h"

#include <algorithm>
#include <cmath>

#include "tsmath/simd/kernels.h"
#include "tsmath/timeseries.h"

namespace litmus::ts {
namespace {

// Counting beats sort+binary-search while m·n (SIMD-swept, ~8 compares
// per cycle) is below the (m+n)·log(n) sort cost plus its constant. Both
// paths yield exact half-integer counts, so this only moves time, never
// bits. Sizes are raw span lengths: deterministic for a given call.
constexpr std::size_t kCountingCrossover = 32768;

// Gathers the observed (non-NaN) values of `xs` into `out` (a scratch
// buffer), preserving order.
void gather_observed(std::span<const double> xs, std::vector<double>& out) {
  out.clear();
  out.reserve(xs.size());
  for (const double v : xs)
    if (!is_missing(v)) out.push_back(v);
}

// Placement of every observed x against an ascending sorted sample.
void place_against_sorted(std::span<const double> xs,
                          const std::vector<double>& sorted,
                          std::span<double> out) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (is_missing(xs[i])) {
      out[i] = kMissing;
      continue;
    }
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), xs[i]);
    const auto hi = std::upper_bound(lo, sorted.end(), xs[i]);
    const double below = static_cast<double>(lo - sorted.begin());
    const double equal = static_cast<double>(hi - lo);
    out[i] = below + 0.5 * equal;
  }
}

}  // namespace

void midranks_into(std::span<const double> xs, std::span<double> out,
                   double* tie_correction) {
  thread_local std::vector<std::size_t> idx;  // sort permutation
  idx.clear();
  idx.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (!is_missing(xs[i])) idx.push_back(i);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

  std::fill(out.begin(), out.end(), kMissing);
  double ties = 0.0;
  std::size_t i = 0;
  while (i < idx.size()) {
    std::size_t j = i;
    while (j + 1 < idx.size() && xs[idx[j + 1]] == xs[idx[i]]) ++j;
    // Positions i..j (0-based) share the mid-rank of 1-based ranks i+1..j+1.
    const double r = 0.5 * (static_cast<double>(i + 1) +
                            static_cast<double>(j + 1));
    for (std::size_t k = i; k <= j; ++k) out[idx[k]] = r;
    const double t = static_cast<double>(j - i + 1);
    ties += t * t * t - t;
    i = j + 1;
  }
  if (tie_correction != nullptr) *tie_correction = ties;
}

std::vector<double> midranks(std::span<const double> xs) {
  std::vector<double> ranks(xs.size());
  midranks_into(xs, ranks);
  return ranks;
}

void placements_counting_into(std::span<const double> xs,
                              std::span<const double> ys,
                              std::span<double> out) {
  // The comparison kernel is NaN-safe (missing ys count as neither below
  // nor equal), so the raw control sample needs no gathering pass.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (is_missing(xs[i])) {
      out[i] = kMissing;
      continue;
    }
    const simd::CmpCount c = simd::count_cmp(ys, xs[i]);
    out[i] = static_cast<double>(c.below) +
             0.5 * static_cast<double>(c.equal);
  }
}

void placements_sorted_into(std::span<const double> xs,
                            std::span<const double> ys,
                            std::span<double> out) {
  thread_local std::vector<double> sorted_y;
  gather_observed(ys, sorted_y);
  std::sort(sorted_y.begin(), sorted_y.end());
  place_against_sorted(xs, sorted_y, out);
}

void placements_into(std::span<const double> xs, std::span<const double> ys,
                     std::span<double> out) {
  if (xs.size() * ys.size() <= kCountingCrossover) {
    placements_counting_into(xs, ys, out);
  } else {
    placements_sorted_into(xs, ys, out);
  }
}

void placement_pair_into(std::span<const double> xs,
                         std::span<const double> ys, std::span<double> u_x,
                         std::span<double> u_y) {
  if (xs.size() * ys.size() <= kCountingCrossover) {
    placements_counting_into(xs, ys, u_x);
    placements_counting_into(ys, xs, u_y);
    return;
  }
  // One sort per sample covers both directions (the naive pair of
  // placements() calls would sort each control sample from scratch).
  thread_local struct {
    std::vector<double> sorted_x, sorted_y;
  } scratch;
  auto& [sorted_x, sorted_y] = scratch;
  gather_observed(ys, sorted_y);
  gather_observed(xs, sorted_x);
  std::sort(sorted_y.begin(), sorted_y.end());
  std::sort(sorted_x.begin(), sorted_x.end());
  place_against_sorted(xs, sorted_y, u_x);
  place_against_sorted(ys, sorted_x, u_y);
}

std::vector<double> placements(std::span<const double> xs,
                               std::span<const double> ys) {
  std::vector<double> out(xs.size());
  placements_into(xs, ys, out);
  return out;
}

double tie_correction_sum(std::span<const double> xs) {
  thread_local std::vector<double> v;  // sorted observed values
  gather_observed(xs, v);
  std::sort(v.begin(), v.end());
  double sum = 0;
  std::size_t i = 0;
  while (i < v.size()) {
    std::size_t j = i;
    while (j + 1 < v.size() && v[j + 1] == v[i]) ++j;
    const double t = static_cast<double>(j - i + 1);
    sum += t * t * t - t;
    i = j + 1;
  }
  return sum;
}

}  // namespace litmus::ts

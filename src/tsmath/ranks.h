// Ranking utilities shared by the rank-based tests in rank_tests.h.
//
// The *_into variants are the hot-path entry points: they write into
// caller-sized output spans and keep all internal scratch in per-function
// thread_local buffers that retain their capacity, so the steady-state
// assessment loop performs no heap allocation. The allocating overloads
// remain as thin wrappers for callers off the hot path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace litmus::ts {

/// Mid-ranks (1-based): ties receive the average of the ranks they span.
/// Missing (NaN) inputs receive NaN ranks and do not consume rank mass.
std::vector<double> midranks(std::span<const double> xs);

/// As midranks(), into `out` (size == xs.size()). When `tie_correction`
/// is non-null it additionally receives Σ (t³ - t) over the tie groups —
/// the same value tie_correction_sum(xs) returns — computed in the same
/// pass over the already-sorted data, saving the Wilcoxon test a second
/// sort of the pooled sample.
void midranks_into(std::span<const double> xs, std::span<double> out,
                   double* tie_correction = nullptr);

/// Placement counts used by the Fligner-Policello robust rank-order test:
/// out[i] = #{ j : ys[j] < xs[i] } + 0.5 * #{ j : ys[j] == xs[i] }.
/// Missing values in either input are ignored (missing xs produce NaN).
std::vector<double> placements(std::span<const double> xs,
                               std::span<const double> ys);

/// As placements(), into `out` (size == xs.size()). Picks between the
/// SIMD counting kernel and the sort+binary-search path on input sizes
/// alone (deterministic); both produce exact half-integer counts, so the
/// choice can never change a result bit.
void placements_into(std::span<const double> xs, std::span<const double> ys,
                     std::span<double> out);

/// The two placement paths, individually addressable so tests can pin
/// them against each other and against the brute-force oracle.
void placements_counting_into(std::span<const double> xs,
                              std::span<const double> ys,
                              std::span<double> out);
void placements_sorted_into(std::span<const double> xs,
                            std::span<const double> ys,
                            std::span<double> out);

/// Both placement directions of one sample pair: u_x[i] counts ys below
/// xs[i], u_y[j] counts xs below ys[j] (ties half). Equivalent to two
/// placements_into calls, but the sorted path sorts each sample exactly
/// once instead of re-sorting the control sample per direction.
void placement_pair_into(std::span<const double> xs,
                         std::span<const double> ys, std::span<double> u_x,
                         std::span<double> u_y);

/// Sum of t^3 - t over tie groups of size t; used in the Wilcoxon
/// tie-corrected variance.
double tie_correction_sum(std::span<const double> xs);

}  // namespace litmus::ts

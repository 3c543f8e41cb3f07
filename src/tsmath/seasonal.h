// Seasonal decomposition helpers.
//
// Used by the figure benches (e.g. Fig 3's two-year foliage pattern) and by
// the synthetic-injection evaluation to verify that generated series carry
// the intended seasonal structure. The Litmus algorithm itself does *not*
// deseasonalize — its whole point is that study/control comparison removes
// shared seasonal effects without modeling them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tsmath/timeseries.h"

namespace litmus::ts {

/// Centered moving average of odd window `w` (missing-aware; a window with
/// fewer than w/2 observed points yields missing).
std::vector<double> moving_average(std::span<const double> xs, std::size_t w);

/// Per-phase means for a cycle of `period` bins (e.g. 24 for hourly
/// time-of-day, 7 for daily day-of-week). Entry p is the mean of
/// observations at phase p.
std::vector<double> seasonal_means(std::span<const double> xs,
                                   std::size_t period);

/// Classical additive decomposition: trend (moving average of one period),
/// seasonal (per-phase means of the detrended series, normalized to sum to
/// zero), remainder.
struct Decomposition {
  std::vector<double> trend;
  std::vector<double> seasonal;  ///< length == input length
  std::vector<double> remainder;
};

Decomposition decompose_additive(std::span<const double> xs,
                                 std::size_t period);

/// Strength of seasonality in [0,1]: 1 - Var(remainder)/Var(seasonal+rem).
/// Near 0 for unseasonal data, near 1 for strongly periodic data.
double seasonal_strength(std::span<const double> xs, std::size_t period);

/// Ordinary least squares slope of xs against bin index (missing-aware);
/// used to estimate long-run trends like Fig 3's carrier-improvement drift.
double linear_trend_slope(std::span<const double> xs);

}  // namespace litmus::ts

#include "tsmath/seasonal.h"

#include <algorithm>
#include <cmath>

#include "tsmath/stats.h"

namespace litmus::ts {

std::vector<double> moving_average(std::span<const double> xs, std::size_t w) {
  std::vector<double> out(xs.size(), kMissing);
  if (w == 0 || w % 2 == 0 || xs.size() < w) return out;
  const std::size_t half = w / 2;
  for (std::size_t i = half; i + half < xs.size(); ++i) {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t j = i - half; j <= i + half; ++j) {
      if (is_missing(xs[j])) continue;
      sum += xs[j];
      ++n;
    }
    if (n >= (w + 1) / 2) out[i] = sum / static_cast<double>(n);
  }
  return out;
}

std::vector<double> seasonal_means(std::span<const double> xs,
                                   std::size_t period) {
  std::vector<double> sums(period, 0.0);
  std::vector<std::size_t> counts(period, 0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (is_missing(xs[i])) continue;
    sums[i % period] += xs[i];
    ++counts[i % period];
  }
  std::vector<double> out(period, kMissing);
  for (std::size_t p = 0; p < period; ++p)
    if (counts[p] > 0) out[p] = sums[p] / static_cast<double>(counts[p]);
  return out;
}

Decomposition decompose_additive(std::span<const double> xs,
                                 std::size_t period) {
  Decomposition d;
  const std::size_t w = period % 2 == 1 ? period : period + 1;
  d.trend = moving_average(xs, w);

  std::vector<double> detrended(xs.size(), kMissing);
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (!is_missing(xs[i]) && !is_missing(d.trend[i]))
      detrended[i] = xs[i] - d.trend[i];

  std::vector<double> phase = seasonal_means(detrended, period);
  // Normalize the seasonal component to mean zero so trend owns the level.
  const double phase_mean = mean(phase);
  if (!is_missing(phase_mean))
    for (double& v : phase)
      if (!is_missing(v)) v -= phase_mean;

  d.seasonal.assign(xs.size(), kMissing);
  d.remainder.assign(xs.size(), kMissing);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    d.seasonal[i] = phase[i % period];
    if (!is_missing(xs[i]) && !is_missing(d.trend[i]) &&
        !is_missing(d.seasonal[i]))
      d.remainder[i] = xs[i] - d.trend[i] - d.seasonal[i];
  }
  return d;
}

double seasonal_strength(std::span<const double> xs, std::size_t period) {
  const Decomposition d = decompose_additive(xs, period);
  std::vector<double> seas_plus_rem(xs.size(), kMissing);
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (!is_missing(d.seasonal[i]) && !is_missing(d.remainder[i]))
      seas_plus_rem[i] = d.seasonal[i] + d.remainder[i];
  const double var_rem = variance(d.remainder);
  const double var_sum = variance(seas_plus_rem);
  if (is_missing(var_rem) || is_missing(var_sum) || var_sum <= 0.0) return 0.0;
  return std::clamp(1.0 - var_rem / var_sum, 0.0, 1.0);
}

double linear_trend_slope(std::span<const double> xs) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (is_missing(xs[i])) continue;
    const double x = static_cast<double>(i);
    sx += x;
    sy += xs[i];
    sxx += x * x;
    sxy += x * xs[i];
    ++n;
  }
  if (n < 2) return kMissing;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom == 0.0) return kMissing;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

}  // namespace litmus::ts

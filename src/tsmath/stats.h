// Descriptive statistics over raw samples and TimeSeries.
//
// All functions skip missing (NaN) observations. Functions that need at
// least one observation return kMissing on an effectively empty input
// rather than throwing: KPI feeds routinely contain gaps and the callers
// (regression, rank tests) are written to tolerate NaN propagation.
#pragma once

#include <cstddef>
#include <span>

#include "tsmath/timeseries.h"

namespace litmus::ts {

double mean(std::span<const double> xs);
double mean(const TimeSeries& s);

/// Unbiased sample variance (n-1 denominator); kMissing when fewer than two
/// observations.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);

double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Linear-interpolation quantile (type 7), q in [0,1].
double quantile(std::span<const double> xs, double q);

double median(std::span<const double> xs);
double median(const TimeSeries& s);

/// Median absolute deviation, scaled by 1.4826 so it estimates sigma for
/// Gaussian data.
double mad(std::span<const double> xs);

/// Sample covariance of the pairwise-complete observations.
double covariance(std::span<const double> xs, std::span<const double> ys);

/// Pearson correlation of the pairwise-complete observations.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Lag-k autocorrelation (pairwise complete).
double autocorrelation(std::span<const double> xs, std::size_t lag);

/// Five-number-style summary used in reports.
struct Summary {
  std::size_t n = 0;       ///< non-missing count
  double mean = kMissing;
  double stddev = kMissing;
  double min = kMissing;
  double q25 = kMissing;
  double median = kMissing;
  double q75 = kMissing;
  double max = kMissing;
};

Summary summarize(std::span<const double> xs);
Summary summarize(const TimeSeries& s);

}  // namespace litmus::ts

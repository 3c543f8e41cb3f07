#include "tsmath/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace litmus::ts {
namespace {

std::vector<double> observed_of(std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double v : xs)
    if (!is_missing(v)) out.push_back(v);
  return out;
}

// Collects indices where both inputs are observed.
void pairwise_complete(std::span<const double> xs, std::span<const double> ys,
                       std::vector<double>& x_out, std::vector<double>& y_out) {
  const std::size_t n = std::min(xs.size(), ys.size());
  x_out.clear();
  y_out.clear();
  x_out.reserve(n);
  y_out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_missing(xs[i]) && !is_missing(ys[i])) {
      x_out.push_back(xs[i]);
      y_out.push_back(ys[i]);
    }
  }
}

}  // namespace

double mean(std::span<const double> xs) {
  double sum = 0;
  std::size_t n = 0;
  for (double v : xs) {
    if (is_missing(v)) continue;
    sum += v;
    ++n;
  }
  return n == 0 ? kMissing : sum / static_cast<double>(n);
}

double mean(const TimeSeries& s) { return mean(s.values()); }

double variance(std::span<const double> xs) {
  const double m = mean(xs);
  if (is_missing(m)) return kMissing;
  double ss = 0;
  std::size_t n = 0;
  for (double v : xs) {
    if (is_missing(v)) continue;
    const double d = v - m;
    ss += d * d;
    ++n;
  }
  return n < 2 ? kMissing : ss / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) {
  const double v = variance(xs);
  return is_missing(v) ? kMissing : std::sqrt(v);
}

double min_value(std::span<const double> xs) {
  double best = kMissing;
  for (double v : xs) {
    if (is_missing(v)) continue;
    if (is_missing(best) || v < best) best = v;
  }
  return best;
}

double max_value(std::span<const double> xs) {
  double best = kMissing;
  for (double v : xs) {
    if (is_missing(v)) continue;
    if (is_missing(best) || v > best) best = v;
  }
  return best;
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> v = observed_of(xs);
  if (v.empty()) return kMissing;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(h));
  if (lo == hi) return v[lo];
  const double frac = h - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }
double median(const TimeSeries& s) { return median(s.values()); }

double mad(std::span<const double> xs) {
  const double med = median(xs);
  if (is_missing(med)) return kMissing;
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double v : xs)
    if (!is_missing(v)) dev.push_back(std::fabs(v - med));
  // 1.4826 = 1/Phi^-1(3/4): consistency constant for the normal distribution.
  return 1.4826 * median(dev);
}

double covariance(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> x, y;
  pairwise_complete(xs, ys, x, y);
  if (x.size() < 2) return kMissing;
  const double mx = mean(x);
  const double my = mean(y);
  double s = 0;
  for (std::size_t i = 0; i < x.size(); ++i) s += (x[i] - mx) * (y[i] - my);
  return s / static_cast<double>(x.size() - 1);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> x, y;
  pairwise_complete(xs, ys, x, y);
  if (x.size() < 2) return kMissing;
  const double sx = stddev(x);
  const double sy = stddev(y);
  if (is_missing(sx) || is_missing(sy) || sx == 0.0 || sy == 0.0)
    return kMissing;
  return covariance(x, y) / (sx * sy);
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (lag == 0) return 1.0;
  if (xs.size() <= lag) return kMissing;
  return pearson(xs.subspan(0, xs.size() - lag), xs.subspan(lag));
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  std::vector<double> v = observed_of(xs);
  s.n = v.size();
  if (v.empty()) return s;
  s.mean = mean(v);
  s.stddev = stddev(v);
  s.min = min_value(v);
  s.q25 = quantile(v, 0.25);
  s.median = quantile(v, 0.5);
  s.q75 = quantile(v, 0.75);
  s.max = max_value(v);
  return s;
}

Summary summarize(const TimeSeries& s) { return summarize(s.values()); }

}  // namespace litmus::ts

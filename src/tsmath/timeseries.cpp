#include "tsmath/timeseries.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tsmath/simd/kernels.h"

namespace litmus::ts {

bool is_missing(double v) noexcept { return std::isnan(v); }

void copy_bins(std::int64_t start_bin, std::span<const double> values,
               std::int64_t from_bin, std::span<double> out) noexcept {
  const std::int64_t to_bin = from_bin + static_cast<std::int64_t>(out.size());
  const std::int64_t lo = std::max(from_bin, start_bin);
  const std::int64_t hi =
      std::min(to_bin, start_bin + static_cast<std::int64_t>(values.size()));
  if (lo >= hi) {
    std::fill(out.begin(), out.end(), kMissing);
    return;
  }
  const std::size_t head = static_cast<std::size_t>(lo - from_bin);
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(head),
            kMissing);
  std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(lo - start_bin),
              n, out.begin() + static_cast<std::ptrdiff_t>(head));
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(head + n), out.end(),
            kMissing);
}

TimeSeries::TimeSeries(std::int64_t start_bin, std::size_t n, int bin_minutes)
    : start_bin_(start_bin),
      bin_minutes_(bin_minutes),
      values_(n, kMissing) {
  if (bin_minutes <= 0) throw std::invalid_argument("bin_minutes must be > 0");
}

TimeSeries::TimeSeries(std::int64_t start_bin, std::vector<double> values,
                       int bin_minutes)
    : start_bin_(start_bin),
      bin_minutes_(bin_minutes),
      values_(std::move(values)) {
  if (bin_minutes <= 0) throw std::invalid_argument("bin_minutes must be > 0");
}

std::int64_t TimeSeries::end_bin() const noexcept {
  return start_bin_ + static_cast<std::int64_t>(values_.size());
}

double TimeSeries::at_bin(std::int64_t bin) const noexcept {
  if (bin < start_bin_ || bin >= end_bin()) return kMissing;
  return values_[static_cast<std::size_t>(bin - start_bin_)];
}

void TimeSeries::set_bin(std::int64_t bin, double v) noexcept {
  if (bin < start_bin_ || bin >= end_bin()) return;
  values_[static_cast<std::size_t>(bin - start_bin_)] = v;
}

std::size_t TimeSeries::observed_count() const noexcept {
  return values_.size() - simd::count_missing(values_);
}

TimeSeries TimeSeries::slice_bins(std::int64_t from, std::int64_t to) const {
  from = std::max(from, start_bin_);
  to = std::min(to, end_bin());
  if (from >= to) return TimeSeries(from, std::vector<double>{}, bin_minutes_);
  auto first = values_.begin() + static_cast<std::ptrdiff_t>(from - start_bin_);
  auto last = values_.begin() + static_cast<std::ptrdiff_t>(to - start_bin_);
  return TimeSeries(from, std::vector<double>(first, last), bin_minutes_);
}

std::vector<double> TimeSeries::observed() const {
  std::vector<double> out;
  out.reserve(values_.size());
  for (double v : values_)
    if (!is_missing(v)) out.push_back(v);
  return out;
}

TimeSeries TimeSeries::minus(const TimeSeries& other) const {
  const std::int64_t from = std::max(start_bin_, other.start_bin_);
  const std::int64_t to = std::min(end_bin(), other.end_bin());
  if (from >= to) return TimeSeries(from, std::vector<double>{}, bin_minutes_);
  TimeSeries out(from, static_cast<std::size_t>(to - from), bin_minutes_);
  for (std::int64_t b = from; b < to; ++b) {
    const double a = at_bin(b);
    const double c = other.at_bin(b);
    if (!is_missing(a) && !is_missing(c)) out.set_bin(b, a - c);
  }
  return out;
}

void TimeSeries::add_level(std::int64_t from, std::int64_t to, double delta) {
  from = std::max(from, start_bin_);
  to = std::min(to, end_bin());
  for (std::int64_t b = from; b < to; ++b) {
    const double v = at_bin(b);
    if (!is_missing(v)) set_bin(b, v + delta);
  }
}

void TimeSeries::add_ramp(std::int64_t from, std::int64_t to, double delta) {
  if (to <= from + 1) {
    add_level(from, to, delta);
    return;
  }
  const double span = static_cast<double>(to - 1 - from);
  const std::int64_t lo = std::max(from, start_bin_);
  const std::int64_t hi = std::min(to, end_bin());
  for (std::int64_t b = lo; b < hi; ++b) {
    const double v = at_bin(b);
    if (is_missing(v)) continue;
    const double frac = static_cast<double>(b - from) / span;
    set_bin(b, v + delta * frac);
  }
}

void TimeSeries::clamp(double lo, double hi) noexcept {
  for (double& v : values_)
    if (!is_missing(v)) v = std::clamp(v, lo, hi);
}

BinRange common_range(std::span<const TimeSeries> series) {
  BinRange r;
  if (series.empty()) return r;
  r.from = series[0].start_bin();
  r.to = series[0].end_bin();
  for (const auto& s : series.subspan(1)) {
    r.from = std::max(r.from, s.start_bin());
    r.to = std::min(r.to, s.end_bin());
  }
  return r;
}

}  // namespace litmus::ts

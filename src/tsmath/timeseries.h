// Time-series container used throughout Litmus.
//
// A TimeSeries is a uniformly-binned sequence of KPI observations. Bins are
// identified by an integer index relative to an epoch; the bin width (in
// minutes) is carried alongside so daily and hourly series can coexist.
// Missing observations are represented as quiet NaNs and are skipped by all
// statistics in stats.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace litmus::ts {

/// Sentinel for a missing observation.
inline constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

/// Returns true when `v` denotes a missing observation.
bool is_missing(double v) noexcept;

/// Copies absolute bins [from_bin, from_bin + out.size()) of the column
/// `values`, whose first value is bin `start_bin`, into `out`: the overlap
/// is one contiguous copy of the stored bit patterns, bins outside the
/// column are filled with kMissing. Every window copy runs through here,
/// from a TimeSeries or from a mapped snapshot column (io/mapped_store.h).
void copy_bins(std::int64_t start_bin, std::span<const double> values,
               std::int64_t from_bin, std::span<double> out) noexcept;

/// Uniformly binned time-series.
///
/// Invariant: `start_bin()` addresses `values()[0]`; bin `start_bin()+i`
/// addresses `values()[i]`.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Constructs a series of `n` missing values starting at `start_bin`.
  TimeSeries(std::int64_t start_bin, std::size_t n, int bin_minutes = 60);

  /// Constructs a series from explicit values.
  TimeSeries(std::int64_t start_bin, std::vector<double> values,
             int bin_minutes = 60);

  std::int64_t start_bin() const noexcept { return start_bin_; }
  std::int64_t end_bin() const noexcept;  ///< one past the last bin
  int bin_minutes() const noexcept { return bin_minutes_; }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  std::span<const double> values() const noexcept { return values_; }
  std::span<double> mutable_values() noexcept { return values_; }

  /// Value at absolute bin `bin`; kMissing when outside the series.
  double at_bin(std::int64_t bin) const noexcept;

  /// Sets the value at absolute bin `bin`; ignored when outside the series.
  void set_bin(std::int64_t bin, double v) noexcept;

  double operator[](std::size_t i) const noexcept { return values_[i]; }
  double& operator[](std::size_t i) noexcept { return values_[i]; }

  /// Number of non-missing observations.
  std::size_t observed_count() const noexcept;

  /// Sub-series covering absolute bins [from, to). Bins outside the series
  /// are clamped away; the result may be empty.
  TimeSeries slice_bins(std::int64_t from, std::int64_t to) const;

  /// Sub-series of the `n` bins ending just before `bin` (exclusive).
  TimeSeries window_before(std::int64_t bin, std::size_t n) const;

  /// Sub-series of the `n` bins starting at `bin` (inclusive).
  TimeSeries window_after(std::int64_t bin, std::size_t n) const;

  /// Non-missing values, in order, as a dense vector.
  std::vector<double> observed() const;

  /// copy_bins() over this series: the columnar counterpart of at_bin()
  /// for assembling design-matrix columns and provider windows.
  void copy_range_into(std::int64_t from_bin,
                       std::span<double> out) const noexcept {
    copy_bins(start_bin_, values_, from_bin, out);
  }

  /// Element-wise difference (this - other) over the overlapping bin range.
  /// Bins missing in either input are missing in the result.
  TimeSeries minus(const TimeSeries& other) const;

  /// Adds `delta` to every non-missing value in absolute bins [from, to).
  void add_level(std::int64_t from, std::int64_t to, double delta);

  /// Adds a linear ramp over [from, to): value at `from` gets 0, the last
  /// bin before `to` gets `delta` (linear in between).
  void add_ramp(std::int64_t from, std::int64_t to, double delta);

  /// Clamps every value into [lo, hi] (useful for ratio KPIs in [0,1]).
  void clamp(double lo, double hi) noexcept;

 private:
  std::int64_t start_bin_ = 0;
  int bin_minutes_ = 60;
  std::vector<double> values_;
};

/// Align several series onto their common overlapping bin range.
/// Returns the [from, to) range; empty range (from >= to) when disjoint.
struct BinRange {
  std::int64_t from = 0;
  std::int64_t to = 0;
  bool empty() const noexcept { return from >= to; }
  std::size_t size() const noexcept {
    return empty() ? 0 : static_cast<std::size_t>(to - from);
  }
};

BinRange common_range(std::span<const TimeSeries> series);

}  // namespace litmus::ts

// Internal: shared point accumulation for the series-CSV parsers.
//
// Both the serial istream loader (io/store.cpp) and the mmap chunk-parallel
// fast path (io/ingest.cpp) funnel rows through a SeriesAccum, so the dense
// series they assemble are bit-identical by construction: per (element,
// KPI) the value sequence is kept in row order (duplicates resolve
// last-wins exactly as set_bin applies them), min/max bin extents are
// order-independent, and the final SeriesStore is keyed by a sorted map so
// accumulation-container iteration order never leaks into results. The
// span check reports the smallest offending key for the same reason.
//
// The accumulator is tuned for the row-per-observation shape: an
// unordered_map avoids the per-row O(log n) of a sorted map, and a
// one-entry memo exploits exports that group each series' rows together
// (save_series_csv writes them contiguously) to skip the hash lookup on
// nearly every row.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/store.h"
#include "kpi/kpi.h"
#include "tsmath/timeseries.h"

namespace litmus::io::detail {

struct SeriesKey {
  std::uint32_t element = 0;
  kpi::KpiId kpi{};

  bool operator==(const SeriesKey&) const = default;
};

struct SeriesKeyHash {
  std::size_t operator()(const SeriesKey& k) const noexcept {
    // splitmix64 over the packed key: cheap and well-distributed.
    std::uint64_t x = (static_cast<std::uint64_t>(k.element) << 8) |
                      static_cast<std::uint64_t>(k.kpi);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

struct SeriesPoints {
  std::int64_t min_bin = 0;
  std::int64_t max_bin = 0;
  std::vector<std::pair<std::int64_t, double>> values;
};

class SeriesAccum {
 public:
  SeriesAccum() { map_.reserve(64); }

  void add(std::uint32_t element, kpi::KpiId kpi, std::int64_t bin,
           double value) {
    const SeriesKey key{element, kpi};
    if (last_ == nullptr || !(last_key_ == key)) {
      last_ = &map_[key];
      last_key_ = key;
    }
    SeriesPoints& p = *last_;
    if (p.values.empty()) {
      // Series exports carry hundreds of bins per series; skipping the
      // first few vector doublings is nearly free (the buffers are
      // shrunk away in build_into) and saves the early reallocations.
      p.values.reserve(256);
      p.min_bin = p.max_bin = bin;
    } else {
      p.min_bin = std::min(p.min_bin, bin);
      p.max_bin = std::max(p.max_bin, bin);
    }
    p.values.emplace_back(bin, value);
  }

  /// Appends `later`'s points after this accumulator's, per key and in
  /// `later`'s row order. Merging chunk accumulators in chunk order
  /// therefore reconstructs exactly the serial row order.
  void merge_after(SeriesAccum&& later) {
    last_ = nullptr;  // pointers may move below
    for (auto& [key, src] : later.map_) {
      auto [it, inserted] = map_.try_emplace(key, std::move(src));
      if (inserted) continue;
      SeriesPoints& dst = it->second;
      if (dst.values.empty()) {
        dst = std::move(src);
        continue;
      }
      dst.min_bin = std::min(dst.min_bin, src.min_bin);
      dst.max_bin = std::max(dst.max_bin, src.max_bin);
      dst.values.insert(dst.values.end(), src.values.begin(),
                        src.values.end());
    }
    later.map_.clear();
    later.last_ = nullptr;
  }

  /// Assembles dense series and installs them; returns the series count.
  /// Throws SeriesSpanError, before any series is allocated, when one
  /// spans more than kMaxSeriesBins.
  std::size_t build_into(SeriesStore& store) && {
    const auto rank = [](const SeriesKey& k) {
      return std::pair(k.element, k.kpi);
    };
    const std::pair<const SeriesKey, SeriesPoints>* wide = nullptr;
    for (const auto& entry : map_) {
      const SeriesPoints& p = entry.second;
      // max_bin >= min_bin, so the unsigned difference is exact.
      const std::uint64_t last = static_cast<std::uint64_t>(p.max_bin) -
                                 static_cast<std::uint64_t>(p.min_bin);
      if (last >= kMaxSeriesBins &&
          (wide == nullptr || rank(entry.first) < rank(wide->first)))
        wide = &entry;
    }
    if (wide != nullptr)
      throw SeriesSpanError(
          "series of element " + std::to_string(wide->first.element) +
          ", KPI " + std::string(kpi::to_string(wide->first.kpi)) +
          ", spans bins " + std::to_string(wide->second.min_bin) + " to " +
          std::to_string(wide->second.max_bin) + ": more than the " +
          std::to_string(kMaxSeriesBins) + " bins a series may hold");

    for (auto& [key, p] : map_) {
      ts::TimeSeries s(
          p.min_bin, static_cast<std::size_t>(p.max_bin - p.min_bin + 1), 60);
      for (const auto& [bin, value] : p.values) s.set_bin(bin, value);
      store.put(net::ElementId{key.element}, key.kpi, std::move(s));
    }
    const std::size_t n = map_.size();
    map_.clear();
    last_ = nullptr;
    return n;
  }

  bool empty() const noexcept { return map_.empty(); }

 private:
  std::unordered_map<SeriesKey, SeriesPoints, SeriesKeyHash> map_;
  SeriesKey last_key_{};
  SeriesPoints* last_ = nullptr;
};

}  // namespace litmus::io::detail

#include "tsmath/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>

namespace litmus::ts {
namespace {

TEST(TimeSeries, DefaultIsEmpty) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.observed_count(), 0u);
}

TEST(TimeSeries, ConstructsFilledWithMissing) {
  TimeSeries s(10, 5);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.start_bin(), 10);
  EXPECT_EQ(s.end_bin(), 15);
  EXPECT_EQ(s.observed_count(), 0u);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_TRUE(is_missing(s[i]));
}

TEST(TimeSeries, ConstructsFromValues) {
  TimeSeries s(-2, {1.0, 2.0, 3.0});
  EXPECT_EQ(s.start_bin(), -2);
  EXPECT_EQ(s.end_bin(), 1);
  EXPECT_DOUBLE_EQ(s.at_bin(-2), 1.0);
  EXPECT_DOUBLE_EQ(s.at_bin(0), 3.0);
}

TEST(TimeSeries, RejectsNonPositiveBinMinutes) {
  EXPECT_THROW(TimeSeries(0, 3, 0), std::invalid_argument);
  EXPECT_THROW(TimeSeries(0, std::vector<double>{1.0}, -60),
               std::invalid_argument);
}

TEST(TimeSeries, AtBinOutsideRangeIsMissing) {
  TimeSeries s(0, {1.0, 2.0});
  EXPECT_TRUE(is_missing(s.at_bin(-1)));
  EXPECT_TRUE(is_missing(s.at_bin(2)));
}

TEST(TimeSeries, SetBinOutsideRangeIsIgnored) {
  TimeSeries s(0, {1.0, 2.0});
  s.set_bin(5, 9.0);
  s.set_bin(-1, 9.0);
  EXPECT_DOUBLE_EQ(s.at_bin(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at_bin(1), 2.0);
}

TEST(TimeSeries, ObservedCountSkipsMissing) {
  TimeSeries s(0, {1.0, kMissing, 3.0, kMissing});
  EXPECT_EQ(s.observed_count(), 2u);
  EXPECT_EQ(s.observed(), (std::vector<double>{1.0, 3.0}));
}

TEST(TimeSeries, SliceClampsToBounds) {
  TimeSeries s(5, {1.0, 2.0, 3.0, 4.0});
  TimeSeries sub = s.slice_bins(0, 7);
  EXPECT_EQ(sub.start_bin(), 5);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.at_bin(6), 2.0);
}

TEST(TimeSeries, SliceDisjointIsEmpty) {
  TimeSeries s(5, {1.0, 2.0});
  EXPECT_TRUE(s.slice_bins(10, 20).empty());
  EXPECT_TRUE(s.slice_bins(7, 5).empty());
}

TEST(TimeSeries, MinusAlignsOnOverlap) {
  TimeSeries a(0, {1.0, 2.0, 3.0});
  TimeSeries b(1, {10.0, 10.0, 10.0});
  TimeSeries d = a.minus(b);
  EXPECT_EQ(d.start_bin(), 1);
  EXPECT_EQ(d.end_bin(), 3);
  EXPECT_DOUBLE_EQ(d.at_bin(1), -8.0);
  EXPECT_DOUBLE_EQ(d.at_bin(2), -7.0);
}

TEST(TimeSeries, MinusPropagatesMissing) {
  TimeSeries a(0, {1.0, kMissing});
  TimeSeries b(0, {1.0, 1.0});
  TimeSeries d = a.minus(b);
  EXPECT_DOUBLE_EQ(d.at_bin(0), 0.0);
  EXPECT_TRUE(is_missing(d.at_bin(1)));
}

TEST(TimeSeries, AddLevelAffectsHalfOpenRange) {
  TimeSeries s(0, {1.0, 1.0, 1.0, 1.0});
  s.add_level(1, 3, 0.5);
  EXPECT_DOUBLE_EQ(s.at_bin(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at_bin(1), 1.5);
  EXPECT_DOUBLE_EQ(s.at_bin(2), 1.5);
  EXPECT_DOUBLE_EQ(s.at_bin(3), 1.0);
}

TEST(TimeSeries, AddLevelSkipsMissing) {
  TimeSeries s(0, {kMissing, 1.0});
  s.add_level(0, 2, 1.0);
  EXPECT_TRUE(is_missing(s.at_bin(0)));
  EXPECT_DOUBLE_EQ(s.at_bin(1), 2.0);
}

TEST(TimeSeries, AddRampIsLinear) {
  TimeSeries s(0, std::vector<double>(5, 0.0));
  s.add_ramp(0, 5, 4.0);  // bins 0..4 get 0,1,2,3,4
  for (int b = 0; b < 5; ++b) EXPECT_DOUBLE_EQ(s.at_bin(b), b);
}

TEST(TimeSeries, AddRampDegeneratesToLevel) {
  TimeSeries s(0, {0.0, 0.0});
  s.add_ramp(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(s.at_bin(0), 2.0);
  EXPECT_DOUBLE_EQ(s.at_bin(1), 0.0);
}

TEST(TimeSeries, ClampBoundsValues) {
  TimeSeries s(0, {-0.5, 0.5, 1.5, kMissing});
  s.clamp(0.0, 1.0);
  EXPECT_DOUBLE_EQ(s.at_bin(0), 0.0);
  EXPECT_DOUBLE_EQ(s.at_bin(1), 0.5);
  EXPECT_DOUBLE_EQ(s.at_bin(2), 1.0);
  EXPECT_TRUE(is_missing(s.at_bin(3)));
}

TEST(CommonRange, IntersectsSpans) {
  std::vector<TimeSeries> v;
  v.emplace_back(0, 10u);
  v.emplace_back(3, 10u);
  v.emplace_back(-5, 10u);
  const BinRange r = common_range(v);
  EXPECT_EQ(r.from, 3);
  EXPECT_EQ(r.to, 5);
  EXPECT_EQ(r.size(), 2u);
}

TEST(CommonRange, DisjointIsEmpty) {
  std::vector<TimeSeries> v;
  v.emplace_back(0, 3u);
  v.emplace_back(10, 3u);
  EXPECT_TRUE(common_range(v).empty());
  EXPECT_EQ(common_range(v).size(), 0u);
}

TEST(CommonRange, EmptyInputIsEmpty) {
  EXPECT_TRUE(common_range({}).empty());
}

TEST(TimeSeries, IsMissingDetectsOnlyNan) {
  EXPECT_TRUE(is_missing(kMissing));
  EXPECT_TRUE(is_missing(std::nan("")));
  EXPECT_FALSE(is_missing(0.0));
  EXPECT_FALSE(is_missing(std::numeric_limits<double>::infinity()));
}

TEST(TimeSeries, CopyRangeIntoMatchesAtBinEverywhere) {
  const TimeSeries s(10, {1.0, 2.0, kMissing, 4.0, 5.0});
  // Sweep windows that fall before, straddle, inside, and after the
  // series; every output bin must equal at_bin().
  for (std::int64_t from = 2; from <= 18; ++from) {
    for (std::size_t n : {0u, 1u, 3u, 8u}) {
      std::vector<double> out(n, -99.0);
      s.copy_range_into(from, out);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = s.at_bin(from + static_cast<std::int64_t>(i));
        if (is_missing(want)) {
          EXPECT_TRUE(is_missing(out[i])) << "from=" << from << " i=" << i;
        } else {
          EXPECT_EQ(out[i], want) << "from=" << from << " i=" << i;
        }
      }
    }
  }
}

TEST(TimeSeries, CopyRangeIntoEmptySeriesFillsMissing) {
  const TimeSeries s;
  std::vector<double> out(4, 0.0);
  s.copy_range_into(-2, out);
  for (double v : out) EXPECT_TRUE(is_missing(v));
}

}  // namespace
}  // namespace litmus::ts

#include "io/store.h"

#include <gtest/gtest.h>

#include <sstream>

#include "cellnet/builder.h"
#include "io/csv.h"

namespace litmus::io {
namespace {

TEST(SeriesStore, PutGetContains) {
  SeriesStore store;
  store.put(net::ElementId{1}, kpi::KpiId::kVoiceRetainability,
            ts::TimeSeries(0, {0.9, 0.95}));
  EXPECT_TRUE(store.contains(net::ElementId{1},
                             kpi::KpiId::kVoiceRetainability));
  EXPECT_FALSE(
      store.contains(net::ElementId{1}, kpi::KpiId::kDataThroughput));
  EXPECT_FALSE(
      store.contains(net::ElementId{2}, kpi::KpiId::kVoiceRetainability));
  EXPECT_DOUBLE_EQ(
      store.get(net::ElementId{1}, kpi::KpiId::kVoiceRetainability).at_bin(1),
      0.95);
  EXPECT_THROW(store.get(net::ElementId{9}, kpi::KpiId::kDataThroughput),
               std::out_of_range);
}

TEST(SeriesStore, ProviderWindowsAndGaps) {
  SeriesStore store;
  store.put(net::ElementId{1}, kpi::KpiId::kVoiceRetainability,
            ts::TimeSeries(10, {0.1, 0.2, 0.3}));
  const core::SeriesProvider p = store.provider();
  // Window straddling the stored span: outside bins are missing.
  const ts::TimeSeries w =
      p(net::ElementId{1}, kpi::KpiId::kVoiceRetainability, 8, 6);
  EXPECT_TRUE(ts::is_missing(w.at_bin(8)));
  EXPECT_DOUBLE_EQ(w.at_bin(10), 0.1);
  EXPECT_DOUBLE_EQ(w.at_bin(12), 0.3);
  EXPECT_TRUE(ts::is_missing(w.at_bin(13)));
  // Absent series: fully missing window of the right shape.
  const ts::TimeSeries none =
      p(net::ElementId{5}, kpi::KpiId::kVoiceRetainability, 0, 4);
  EXPECT_EQ(none.size(), 4u);
  EXPECT_EQ(none.observed_count(), 0u);
}

TEST(SeriesCsv, RoundTrip) {
  ts::TimeSeries s(-2, {0.5, ts::kMissing, 0.75, 1.0});
  std::stringstream buf;
  save_series_csv(buf, net::ElementId{7}, kpi::KpiId::kDataRetainability, s);

  SeriesStore store;
  const std::size_t points = load_series_csv(buf, store);
  EXPECT_EQ(points, 4u);
  const ts::TimeSeries& r =
      store.get(net::ElementId{7}, kpi::KpiId::kDataRetainability);
  EXPECT_EQ(r.start_bin(), -2);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r.at_bin(-2), 0.5);
  EXPECT_TRUE(ts::is_missing(r.at_bin(-1)));
  EXPECT_DOUBLE_EQ(r.at_bin(1), 1.0);
}

TEST(SeriesCsv, MultipleSeriesInOneFile) {
  std::stringstream buf;
  buf << "1, voice_retainability, 0, 0.9\n"
      << "1, data_retainability, 0, 0.8\n"
      << "2, voice_retainability, 5, 0.7\n";
  SeriesStore store;
  EXPECT_EQ(load_series_csv(buf, store), 3u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_DOUBLE_EQ(
      store.get(net::ElementId{2}, kpi::KpiId::kVoiceRetainability)
          .at_bin(5),
      0.7);
}

TEST(SeriesCsv, SparseBinsFillGapsWithMissing) {
  std::stringstream buf;
  buf << "1, voice_retainability, 0, 0.9\n"
      << "1, voice_retainability, 3, 0.8\n";
  SeriesStore store;
  load_series_csv(buf, store);
  const auto& s =
      store.get(net::ElementId{1}, kpi::KpiId::kVoiceRetainability);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(ts::is_missing(s.at_bin(1)));
  EXPECT_TRUE(ts::is_missing(s.at_bin(2)));
}

TEST(SeriesCsv, MalformedRowsThrow) {
  SeriesStore store;
  std::stringstream missing_field("1, voice_retainability, 0\n");
  EXPECT_THROW(load_series_csv(missing_field, store), std::runtime_error);
  std::stringstream bad_kpi("1, not_a_kpi, 0, 0.9\n");
  EXPECT_THROW(load_series_csv(bad_kpi, store), std::runtime_error);
  std::stringstream bad_id("zero, voice_retainability, 0, 0.9\n");
  EXPECT_THROW(load_series_csv(bad_id, store), std::runtime_error);
}

// Element ids are 32-bit: a wider one would wrap onto another element
// (4294967306 onto 10), so the loader rejects it on its line. The largest
// 32-bit id still loads.
TEST(SeriesCsv, ElementIdAboveUint32Throws) {
  std::stringstream top("4294967295, voice_retainability, 0, 0.9\n");
  SeriesStore store;
  EXPECT_EQ(load_series_csv(top, store), 1u);
  EXPECT_TRUE(store.contains(net::ElementId{4294967295u},
                             kpi::KpiId::kVoiceRetainability));
  std::stringstream wide("10, voice_retainability, 0, 0.9\n"
                         "4294967306, voice_retainability, 1, 0.9\n");
  try {
    load_series_csv(wide, store);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_STREQ(e.what(), "series csv line 2: bad element id '4294967306'");
  }
}

TEST(TopologyCsv, RoundTripPreservesStructure) {
  const net::Topology original = net::build_small_region(
      net::Region::kMidwest, 31415, 3, 4);
  std::stringstream buf;
  save_topology_csv(buf, original);
  const net::Topology loaded = load_topology_csv(buf);

  ASSERT_EQ(loaded.size(), original.size());
  for (const auto id : original.all()) {
    const auto& a = original.get(id);
    const auto& b = loaded.get(id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.technology, b.technology);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.zip, b.zip);
    EXPECT_EQ(a.region, b.region);
    EXPECT_EQ(a.market, b.market);
    EXPECT_NEAR(a.location.lat_deg, b.location.lat_deg, 1e-5);
    EXPECT_NEAR(a.location.lon_deg, b.location.lon_deg, 1e-5);
  }
  // Structural queries survive the round trip.
  EXPECT_EQ(loaded.of_kind(net::ElementKind::kRnc).size(),
            original.of_kind(net::ElementKind::kRnc).size());
  const auto rnc = loaded.of_kind(net::ElementKind::kRnc)[0];
  EXPECT_EQ(loaded.children_of(rnc).size(),
            original.children_of(rnc).size());
}

TEST(TopologyCsv, MalformedRowsThrow) {
  std::stringstream bad_kind("1, WOMBAT, UMTS, x, 1, 1, 1, Northeast, 0, 0\n");
  EXPECT_THROW(load_topology_csv(bad_kind), std::runtime_error);
  std::stringstream short_row("1, RNC, UMTS, x\n");
  EXPECT_THROW(load_topology_csv(short_row), std::runtime_error);
  std::stringstream bad_region(
      "1, RNC, UMTS, x, 1, 1, 1, Atlantis, 0, 0\n");
  EXPECT_THROW(load_topology_csv(bad_region), std::runtime_error);
}

TEST(TopologyCsv, IdAboveUint32Throws) {
  std::stringstream top("4294967295, RNC, UMTS, x, 1, 1, 1, Northeast, 0, 0\n");
  EXPECT_TRUE(load_topology_csv(top).contains(net::ElementId{4294967295u}));
  std::stringstream wide("1, RNC, UMTS, x, 1, 1, 1, Northeast, 0, 0\n"
                         "4294967306, RNC, UMTS, y, 1, 1, 1, Northeast, 0, "
                         "0\n");
  try {
    load_topology_csv(wide);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_STREQ(e.what(), "topology csv line 2: bad id '4294967306'");
  }
}

TEST(SeriesCsv, ErrorsNameTheOffendingLine) {
  // The bad row sits on physical line 4 (header comment + two good rows).
  std::stringstream buf;
  buf << "# element_id, kpi_name, bin, value\n"
      << "1, voice_retainability, 0, 0.9\n"
      << "1, voice_retainability, 1, 0.8\n"
      << "1, voice_retainability, 2\n";
  SeriesStore store;
  try {
    load_series_csv(buf, store);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_STREQ(e.what(), "series csv line 4: expected 4 fields, got 3");
  }
}

TEST(TopologyCsv, ErrorsNameTheOffendingLine) {
  std::stringstream buf;
  buf << "# header\n"
      << "1, RNC, UMTS, good, 1, 1, 1, Northeast, 0, 0\n"
      << "2, WOMBAT, UMTS, bad, 1, 1, 1, Northeast, 0, 0\n";
  try {
    load_topology_csv(buf);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_STREQ(e.what(), "topology csv line 3: unknown element kind "
                           "'WOMBAT'");
  }
}

}  // namespace
}  // namespace litmus::io

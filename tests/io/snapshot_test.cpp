// Snapshot cache correctness: bit-exact round-trips, every invalidation
// rule in io/snapshot.h, and the full miss -> hit -> invalidate lifecycle
// through ingest_series_file().
#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "io/ingest.h"
#include "io/store.h"
#include "tsmath/random.h"
#include "tsmath/timeseries.h"

namespace litmus::io {
namespace {

namespace fs = std::filesystem;

void expect_stores_identical(const SeriesStore& a, const SeriesStore& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.entries().begin();
  for (const auto& [key, sa] : a.entries()) {
    ASSERT_EQ(key, ib->first);
    const ts::TimeSeries& sb = ib->second;
    ASSERT_EQ(sa.start_bin(), sb.start_bin());
    ASSERT_EQ(sa.bin_minutes(), sb.bin_minutes());
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sa[i]),
                std::bit_cast<std::uint64_t>(sb[i]));
    ++ib;
  }
}

SeriesStore sample_store() {
  SeriesStore store;
  ts::Rng rng(11);
  for (std::uint32_t e = 1; e <= 5; ++e) {
    std::vector<double> values;
    for (int i = 0; i < 72; ++i)
      values.push_back(rng.chance(0.08) ? ts::kMissing
                                        : rng.normal(0.96, 0.015));
    store.put(net::ElementId{e}, kpi::KpiId::kDataRetainability,
              ts::TimeSeries(-36, std::move(values)));
    store.put(net::ElementId{e}, kpi::KpiId::kDataThroughput,
              ts::TimeSeries(0, {1.5, ts::kMissing, 3.25}, 1440));
  }
  return store;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("litmus_snap_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(SnapshotTest, RoundTripIsBitExact) {
  const SeriesStore original = sample_store();
  const std::string snap = path("a.litmus-snap");
  save_series_snapshot(snap, original, 0xfeedu, 12345u, 777u);

  SeriesStore loaded;
  std::string why;
  EXPECT_EQ(load_series_snapshot(snap, loaded, 0xfeedu, 12345u, &why),
            SnapshotLoad::kLoaded)
      << why;
  expect_stores_identical(original, loaded);
}

TEST_F(SnapshotTest, MissingFileReportsMissing) {
  SeriesStore store;
  EXPECT_EQ(load_series_snapshot(path("absent.litmus-snap"), store, 1, 1),
            SnapshotLoad::kMissing);
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(SnapshotTest, FingerprintMismatchIsStale) {
  const std::string snap = path("fp.litmus-snap");
  save_series_snapshot(snap, sample_store(), 0xAAAAu, 100u, 777u);
  SeriesStore store;
  std::string why;
  EXPECT_EQ(load_series_snapshot(snap, store, 0xBBBBu, 100u, &why),
            SnapshotLoad::kStale);
  EXPECT_EQ(store.size(), 0u);  // store untouched
  EXPECT_FALSE(why.empty());
}

TEST_F(SnapshotTest, SourceSizeMismatchIsStale) {
  const std::string snap = path("sz.litmus-snap");
  save_series_snapshot(snap, sample_store(), 0xAAAAu, 100u, 777u);
  SeriesStore store;
  EXPECT_EQ(load_series_snapshot(snap, store, 0xAAAAu, 101u),
            SnapshotLoad::kStale);
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(SnapshotTest, BadMagicIsStale) {
  const std::string snap = path("magic.litmus-snap");
  save_series_snapshot(snap, sample_store(), 1u, 1u, 777u);
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');  // clobber first magic byte
  }
  SeriesStore store;
  std::string why;
  EXPECT_EQ(load_series_snapshot(snap, store, 1u, 1u, &why),
            SnapshotLoad::kStale);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(why.empty());
}

TEST_F(SnapshotTest, CorruptPayloadFailsChecksum) {
  const std::string snap = path("corrupt.litmus-snap");
  save_series_snapshot(snap, sample_store(), 1u, 1u, 777u);
  {
    // Flip one payload byte past the 64-byte header.
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(80);
    const int c = f.get();
    f.seekp(80);
    f.put(static_cast<char>(c ^ 0x40));
  }
  SeriesStore store;
  std::string why;
  EXPECT_EQ(load_series_snapshot(snap, store, 1u, 1u, &why),
            SnapshotLoad::kStale);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(why.empty());
}

TEST_F(SnapshotTest, TruncatedFileIsStale) {
  const std::string snap = path("trunc.litmus-snap");
  save_series_snapshot(snap, sample_store(), 1u, 1u, 777u);
  const auto full = fs::file_size(snap);
  fs::resize_file(snap, full / 2);
  SeriesStore store;
  EXPECT_EQ(load_series_snapshot(snap, store, 1u, 1u), SnapshotLoad::kStale);
  EXPECT_EQ(store.size(), 0u);

  fs::resize_file(snap, 10);  // not even a header
  EXPECT_EQ(load_series_snapshot(snap, store, 1u, 1u), SnapshotLoad::kStale);
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(SnapshotTest, RewriteRotatesExistingSnapshot) {
  const std::string snap = path("rot.litmus-snap");
  save_series_snapshot(snap, sample_store(), 1u, 1u, 777u);
  save_series_snapshot(snap, sample_store(), 2u, 2u, 888u);
  EXPECT_TRUE(fs::exists(snap + ".old"));
  SeriesStore store;
  EXPECT_EQ(load_series_snapshot(snap, store, 2u, 2u), SnapshotLoad::kLoaded);
}

TEST(SnapshotPath, SixteenHexDigitsPlusSuffix) {
  EXPECT_EQ(snapshot_cache_path("/tmp/cache", 0xdeadbeefu),
            "/tmp/cache/00000000deadbeef.litmus-snap");
  EXPECT_EQ(snapshot_cache_path("cache", 0xffffffffffffffffull),
            "cache/ffffffffffffffff.litmus-snap");
}

TEST_F(SnapshotTest, IngestMissThenHitThenInvalidate) {
  // A little CSV on disk, ingested four times: cold miss (writes the
  // snapshot), warm hit (loads it, bit-identical), a hit on a corrupted
  // snapshot (re-parsed, never half-populated), then the source is edited
  // and the stale snapshot is bypassed.
  const std::string csv_path = path("series.csv");
  std::string csv = "# element_id, kpi_name, bin, value\n";
  for (int b = -12; b < 12; ++b)
    csv += "7, voice_retainability, " + std::to_string(b) + ", 0.97\n";
  {
    std::ofstream out(csv_path, std::ios::binary);
    out << csv;
  }
  IngestOptions opts;
  opts.snapshot_dir = (dir_ / "cache").string();

  SeriesStore cold;
  const IngestReport r1 = ingest_series_file(csv_path, cold, opts);
  EXPECT_FALSE(r1.from_snapshot);
  EXPECT_EQ(r1.rows, 24u);
  ASSERT_FALSE(r1.snapshot_path.empty());
  EXPECT_TRUE(fs::exists(r1.snapshot_path));

  SeriesStore warm;
  const IngestReport r2 = ingest_series_file(csv_path, warm, opts);
  EXPECT_TRUE(r2.from_snapshot);
  EXPECT_EQ(r2.fingerprint, r1.fingerprint);
  expect_stores_identical(cold, warm);

  // Flip one payload byte past the 64-byte header of the cached snapshot:
  // the source's stat still matches, so only the checksum catches it, and
  // the CSV is parsed again into a store identical to the first parse.
  {
    std::fstream f(r1.snapshot_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(80);
    const int c = f.get();
    f.seekp(80);
    f.put(static_cast<char>(c ^ 0x40));
  }
  SeriesStore reparsed;
  const IngestReport rc = ingest_series_file(csv_path, reparsed, opts);
  EXPECT_FALSE(rc.from_snapshot);
  EXPECT_EQ(rc.rows, 24u);
  expect_stores_identical(cold, reparsed);

  // Edit the source: the stat no longer matches, so the source is
  // re-hashed, the fingerprint comparison flags the snapshot stale, and a
  // fresh snapshot replaces it at the same path-keyed location (the old
  // one rotates to ".old").
  csv += "7, voice_retainability, 12, 0.5\n";
  {
    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    out << csv;
  }
  SeriesStore edited;
  const IngestReport r3 = ingest_series_file(csv_path, edited, opts);
  EXPECT_FALSE(r3.from_snapshot);
  EXPECT_NE(r3.fingerprint, r1.fingerprint);
  EXPECT_EQ(r3.rows, 25u);
  EXPECT_EQ(r3.snapshot_path, r1.snapshot_path);
  EXPECT_TRUE(fs::exists(r3.snapshot_path));
  EXPECT_TRUE(fs::exists(r3.snapshot_path + ".old"));

  SeriesStore warm2;
  const IngestReport r4 = ingest_series_file(csv_path, warm2, opts);
  EXPECT_TRUE(r4.from_snapshot);
  expect_stores_identical(edited, warm2);
}

TEST_F(SnapshotTest, ReadSnapshotMetaRoundTrip) {
  const std::string snap = path("meta.litmus-snap");
  save_series_snapshot(snap, sample_store(), 0xabcdefu, 4321u, 99887766u);
  const auto meta = read_snapshot_meta(snap);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->fingerprint, 0xabcdefu);
  EXPECT_EQ(meta->source_bytes, 4321u);
  EXPECT_EQ(meta->source_mtime_ns, 99887766u);

  EXPECT_FALSE(read_snapshot_meta(path("absent.litmus-snap")).has_value());
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');  // clobber the magic
  }
  EXPECT_FALSE(read_snapshot_meta(snap).has_value());
}

TEST_F(SnapshotTest, TouchedSourceStillHitsViaFingerprint) {
  // Rewriting the source with byte-identical contents bumps the mtime.
  // The probe falls off the stat-trust shortcut, re-hashes the source,
  // finds the recorded fingerprint still matches, and hits anyway.
  const std::string csv_path = path("series.csv");
  const std::string csv = "5, data_throughput, 0, 12.5\n";
  {
    std::ofstream out(csv_path, std::ios::binary);
    out << csv;
  }
  IngestOptions opts;
  opts.snapshot_dir = (dir_ / "cache").string();

  SeriesStore cold;
  const IngestReport r1 = ingest_series_file(csv_path, cold, opts);
  EXPECT_FALSE(r1.from_snapshot);

  {
    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    out << csv;  // same bytes, fresh mtime
  }
  SeriesStore warm;
  const IngestReport r2 = ingest_series_file(csv_path, warm, opts);
  EXPECT_TRUE(r2.from_snapshot);
  EXPECT_EQ(r2.fingerprint, r1.fingerprint);
  expect_stores_identical(cold, warm);

  // The hit also refreshed the recorded source stat in place (when the
  // touch was visible in the mtime at all), so the snapshot header now
  // matches the source again and keeps the same fingerprint; a third
  // ingest hits regardless of which probe path it takes.
  const auto meta = read_snapshot_meta(r2.snapshot_path);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->fingerprint, r1.fingerprint);
  SeriesStore warm2;
  const IngestReport r3 = ingest_series_file(csv_path, warm2, opts);
  EXPECT_TRUE(r3.from_snapshot);
  expect_stores_identical(cold, warm2);
}

TEST_F(SnapshotTest, VerifyEnvForcesRehashButStillHits) {
  const std::string csv_path = path("series.csv");
  {
    std::ofstream out(csv_path, std::ios::binary);
    out << "9, voice_retainability, 3, 0.91\n";
  }
  IngestOptions opts;
  opts.snapshot_dir = (dir_ / "cache").string();

  SeriesStore cold;
  const IngestReport r1 = ingest_series_file(csv_path, cold, opts);
  EXPECT_FALSE(r1.from_snapshot);

  ::setenv("LITMUS_SNAPSHOT_VERIFY", "1", 1);
  SeriesStore warm;
  const IngestReport r2 = ingest_series_file(csv_path, warm, opts);
  ::unsetenv("LITMUS_SNAPSHOT_VERIFY");
  EXPECT_TRUE(r2.from_snapshot);
  EXPECT_EQ(r2.fingerprint, r1.fingerprint);
  expect_stores_identical(cold, warm);
}

TEST_F(SnapshotTest, NoSnapshotWrittenIntoNonEmptyStore) {
  // A snapshot must capture exactly one file's contents; when the caller
  // merges several inputs into one store, caching would conflate them.
  const std::string csv_path = path("series.csv");
  {
    std::ofstream out(csv_path, std::ios::binary);
    out << "3, data_throughput, 0, 9.5\n";
  }
  IngestOptions opts;
  opts.snapshot_dir = (dir_ / "cache").string();

  SeriesStore store;
  store.put(net::ElementId{1}, kpi::KpiId::kVoiceRetainability,
            ts::TimeSeries(0, std::vector<double>{0.5}));
  const IngestReport rep = ingest_series_file(csv_path, store, opts);
  EXPECT_FALSE(rep.from_snapshot);
  EXPECT_FALSE(fs::exists(rep.snapshot_path));
  EXPECT_EQ(store.size(), 2u);  // merged, not replaced
}

}  // namespace
}  // namespace litmus::io

// Snapshot cache correctness: bit-exact round-trips through the one reader
// (MappedStore::open), the stale reasons only the cache can judge (source
// fingerprint and size), and the full miss -> hit -> invalidate lifecycle
// through ingest_series_file(). Byte-level corruption (magic, checksum,
// truncation) is MappedStore::open's to reject; see mapped_store_test.cpp.
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
#include "io/mapped_store.h"
#include "io/store.h"
#include "obs/manifest.h"
#include "tsmath/random.h"
#include "tsmath/timeseries.h"

namespace litmus::io {
namespace {

namespace fs = std::filesystem;

void expect_same_bits(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]));
}

void expect_stores_identical(const SeriesStore& a, const SeriesStore& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.entries().begin();
  for (const auto& [key, sa] : a.entries()) {
    ASSERT_EQ(key, ib->first);
    const ts::TimeSeries& sb = ib->second;
    ASSERT_EQ(sa.start_bin(), sb.start_bin());
    ASSERT_EQ(sa.bin_minutes(), sb.bin_minutes());
    expect_same_bits(sa.values(), sb.values());
    ++ib;
  }
}

// The mapped store serves exactly the series of `a`, bit for bit.
void expect_mapped_identical(const SeriesStore& a, const MappedStore& m) {
  ASSERT_EQ(a.size(), m.size());
  auto im = m.entries().begin();
  for (const auto& [key, sa] : a.entries()) {
    ASSERT_EQ(key, im->key);
    ASSERT_EQ(sa.start_bin(), im->view.start_bin);
    ASSERT_EQ(sa.bin_minutes(), im->view.bin_minutes);
    expect_same_bits(sa.values(), im->view.values);
    ++im;
  }
}

void expect_source_identical(const SeriesStore& a, const SeriesSource& s) {
  if (s.mapped())
    expect_mapped_identical(a, *s.mapped());
  else
    expect_stores_identical(a, *s.heap());
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

  IngestOptions cache_opts() const {
    IngestOptions opts;
    opts.snapshot_dir = (dir_ / "cache").string();
    return opts;
  }

  /// Writes `csv` as series.csv and returns its path.
  std::string write_csv(const std::string& csv) const {
    const std::string csv_path = path("series.csv");
    std::ofstream(csv_path, std::ios::binary | std::ios::trunc) << csv;
    return csv_path;
  }

  /// The cache entry ingest_series_file keys to `csv_path`.
  std::string cache_entry(const std::string& csv_path) const {
    return snapshot_cache_path(cache_opts().snapshot_dir,
                               obs::fnv1a64(csv_path.data(), csv_path.size()));
  }

  /// Ingests through the cache; `note` receives what the ingest printed
  /// on stderr (the stale-snapshot line, if any).
  IngestResult ingest(const std::string& csv_path, std::string* note) const {
    ::testing::internal::CaptureStderr();
    IngestResult in = ingest_series_file(csv_path, cache_opts());
    *note = ::testing::internal::GetCapturedStderr();
    return in;
  }

  fs::path dir_;
};

TEST_F(SnapshotTest, RoundTripIsBitExact) {
  const SeriesStore original = sample_store();
  const std::string snap = path("a.litmus-snap");
  save_series_snapshot(snap, original, 0xfeedu, 12345u, 777u);

  std::string why;
  const auto mapped = MappedStore::open(snap, &why);
  ASSERT_NE(mapped, nullptr) << why;
  EXPECT_EQ(mapped->meta().fingerprint, 0xfeedu);
  EXPECT_EQ(mapped->meta().source_bytes, 12345u);
  EXPECT_EQ(mapped->meta().source_mtime_ns, 777u);
  expect_mapped_identical(original, *mapped);
}

TEST_F(SnapshotTest, MissingFileReportsMissing) {
  const std::string absent = path("absent.litmus-snap");
  std::string why;
  EXPECT_EQ(MappedStore::open(absent, &why), nullptr);
  EXPECT_NE(why.find(absent), std::string::npos) << why;
}

TEST_F(SnapshotTest, FingerprintMismatchIsStale) {
  // A cache entry recorded for other source bytes (mtime 0 never takes
  // the stat shortcut): the re-hash disagrees, the CSV is parsed, and the
  // entry is rewritten so the next run hits.
  const std::string csv = "4, voice_retainability, 0, 0.93\n";
  const std::string csv_path = write_csv(csv);
  save_series_snapshot(cache_entry(csv_path), sample_store(), 0xBBBBu,
                       csv.size(), 0);
  std::string note;
  const IngestResult in = ingest(csv_path, &note);
  EXPECT_FALSE(in.report.from_snapshot);
  EXPECT_EQ(in.report.rows, 1u);
  EXPECT_NE(note.find("source fingerprint changed"), std::string::npos)
      << note;
  EXPECT_TRUE(fs::exists(cache_entry(csv_path) + ".old"));
  EXPECT_TRUE(ingest(csv_path, &note).report.from_snapshot);
}

TEST_F(SnapshotTest, SourceSizeMismatchIsStale) {
  const std::string csv = "4, voice_retainability, 0, 0.93\n";
  const std::string csv_path = write_csv(csv);
  save_series_snapshot(cache_entry(csv_path), sample_store(),
                       obs::fnv1a64(csv.data(), csv.size()), csv.size() + 1,
                       0);
  std::string note;
  const IngestResult in = ingest(csv_path, &note);
  EXPECT_FALSE(in.report.from_snapshot);
  EXPECT_NE(note.find("source size changed"), std::string::npos) << note;
  ASSERT_NE(in.series.heap(), nullptr);
  EXPECT_EQ(in.series.size(), 1u);
}

TEST_F(SnapshotTest, BadMagicIsStale) {
  // A cache entry whose magic is clobbered is not a snapshot at all: the
  // header probe treats it as absent, the CSV is parsed, and the entry is
  // rewritten so the next run hits.
  const std::string csv = "4, voice_retainability, 0, 0.93\n";
  const std::string csv_path = write_csv(csv);
  const std::string snap = cache_entry(csv_path);
  save_series_snapshot(snap, sample_store(),
                       obs::fnv1a64(csv.data(), csv.size()), csv.size(), 0);
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');  // clobber first magic byte
  }
  std::string why;
  EXPECT_EQ(MappedStore::open(snap, &why), nullptr);
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(read_snapshot_meta(snap).has_value());

  std::string note;
  const IngestResult in = ingest(csv_path, &note);
  EXPECT_FALSE(in.report.from_snapshot);
  EXPECT_EQ(in.report.rows, 1u);
  ASSERT_NE(in.series.heap(), nullptr);
  EXPECT_EQ(in.series.size(), 1u);
  EXPECT_TRUE(ingest(csv_path, &note).report.from_snapshot);
}

TEST_F(SnapshotTest, CorruptPayloadFailsChecksum) {
  // The header still matches the source, but one payload byte past the
  // 56-byte header is flipped: the entry must not serve.
  const std::string csv = "4, voice_retainability, 0, 0.93\n";
  const std::string csv_path = write_csv(csv);
  const std::string snap = cache_entry(csv_path);
  save_series_snapshot(snap, sample_store(),
                       obs::fnv1a64(csv.data(), csv.size()), csv.size(), 0);
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(80);
    const int c = f.get();
    f.seekp(80);
    f.put(static_cast<char>(c ^ 0x40));
  }
  std::string note;
  const IngestResult in = ingest(csv_path, &note);
  EXPECT_FALSE(in.report.from_snapshot);
  EXPECT_EQ(in.report.rows, 1u);
  EXPECT_NE(note.find("payload checksum mismatch"), std::string::npos)
      << note;
  ASSERT_NE(in.series.heap(), nullptr);
  EXPECT_EQ(in.series.size(), 1u);
  EXPECT_TRUE(ingest(csv_path, &note).report.from_snapshot);
}

TEST_F(SnapshotTest, TruncatedFileIsStale) {
  const std::string csv = "4, voice_retainability, 0, 0.93\n";
  const std::string csv_path = write_csv(csv);
  const std::string snap = cache_entry(csv_path);
  const std::uint64_t fp = obs::fnv1a64(csv.data(), csv.size());

  // Cut to half: the header still reads, the payload does not.
  save_series_snapshot(snap, sample_store(), fp, csv.size(), 0);
  fs::resize_file(snap, fs::file_size(snap) / 2);
  std::string note;
  IngestResult in = ingest(csv_path, &note);
  EXPECT_FALSE(in.report.from_snapshot);
  EXPECT_EQ(in.report.rows, 1u);
  EXPECT_NE(note.find("payload size mismatch"), std::string::npos) << note;
  EXPECT_EQ(in.series.size(), 1u);

  // Cut to 10 bytes: not even a header.
  save_series_snapshot(snap, sample_store(), fp, csv.size(), 0);
  fs::resize_file(snap, 10);
  in = ingest(csv_path, &note);
  EXPECT_FALSE(in.report.from_snapshot);
  EXPECT_EQ(in.report.rows, 1u);
  EXPECT_EQ(in.series.size(), 1u);
  EXPECT_TRUE(ingest(csv_path, &note).report.from_snapshot);
}

TEST_F(SnapshotTest, RewriteRotatesExistingSnapshot) {
  const std::string snap = path("rot.litmus-snap");
  save_series_snapshot(snap, sample_store(), 1u, 1u, 777u);
  save_series_snapshot(snap, sample_store(), 2u, 2u, 888u);
  EXPECT_TRUE(fs::exists(snap + ".old"));
  const auto mapped = MappedStore::open(snap);
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(mapped->meta().fingerprint, 2u);
}

TEST(SnapshotPath, SixteenHexDigitsPlusSuffix) {
  EXPECT_EQ(snapshot_cache_path("/tmp/cache", 0xdeadbeefu),
            "/tmp/cache/00000000deadbeef.litmus-snap");
  EXPECT_EQ(snapshot_cache_path("cache", 0xffffffffffffffffull),
            "cache/ffffffffffffffff.litmus-snap");
}

TEST_F(SnapshotTest, IngestMissThenHitThenInvalidate) {
  // A little CSV on disk, ingested five times: cold miss (parses, writes
  // the snapshot), warm hit (maps it, bit-identical), a hit on a
  // corrupted snapshot (re-parsed, never half-served), then the source is
  // edited and the stale snapshot is bypassed and replaced.
  std::string csv = "# element_id, kpi_name, bin, value\n";
  for (int b = -12; b < 12; ++b)
    csv += "7, voice_retainability, " + std::to_string(b) + ", 0.97\n";
  const std::string csv_path = write_csv(csv);
  std::string note;

  const IngestResult cold = ingest(csv_path, &note);
  EXPECT_FALSE(cold.report.from_snapshot);
  EXPECT_EQ(cold.report.rows, 24u);
  ASSERT_NE(cold.series.heap(), nullptr);
  ASSERT_FALSE(cold.report.snapshot_path.empty());
  EXPECT_TRUE(fs::exists(cold.report.snapshot_path));
  const SeriesStore& parsed = *cold.series.heap();

  {
    const IngestResult warm = ingest(csv_path, &note);
    EXPECT_TRUE(warm.report.from_snapshot);
    EXPECT_EQ(warm.report.rows, 0u);
    EXPECT_EQ(warm.report.fingerprint, cold.report.fingerprint);
    ASSERT_NE(warm.series.mapped(), nullptr);
    expect_mapped_identical(parsed, *warm.series.mapped());
  }

  // Flip one payload byte past the 64-byte header of the cached snapshot:
  // the source's stat still matches, so only the checksum catches it, and
  // the CSV is parsed again into a store identical to the first parse.
  {
    std::fstream f(cold.report.snapshot_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(80);
    const int c = f.get();
    f.seekp(80);
    f.put(static_cast<char>(c ^ 0x40));
  }
  const IngestResult reparsed = ingest(csv_path, &note);
  EXPECT_FALSE(reparsed.report.from_snapshot);
  EXPECT_EQ(reparsed.report.rows, 24u);
  EXPECT_NE(note.find("payload checksum mismatch"), std::string::npos)
      << note;
  expect_source_identical(parsed, reparsed.series);

  // Edit the source: the stat no longer matches, so the source is
  // re-hashed, the fingerprint comparison flags the snapshot stale, and a
  // fresh snapshot replaces it at the same path-keyed location (the old
  // one rotates to ".old").
  csv += "7, voice_retainability, 12, 0.5\n";
  write_csv(csv);
  const IngestResult edited = ingest(csv_path, &note);
  EXPECT_FALSE(edited.report.from_snapshot);
  EXPECT_NE(edited.report.fingerprint, cold.report.fingerprint);
  EXPECT_EQ(edited.report.rows, 25u);
  EXPECT_EQ(edited.report.snapshot_path, cold.report.snapshot_path);
  EXPECT_TRUE(fs::exists(edited.report.snapshot_path));
  EXPECT_TRUE(fs::exists(edited.report.snapshot_path + ".old"));

  const IngestResult warm2 = ingest(csv_path, &note);
  EXPECT_TRUE(warm2.report.from_snapshot);
  expect_source_identical(*edited.series.heap(), warm2.series);
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
  const std::string csv = "5, data_throughput, 0, 12.5\n";
  const std::string csv_path = write_csv(csv);
  std::string note;

  const IngestResult cold = ingest(csv_path, &note);
  EXPECT_FALSE(cold.report.from_snapshot);

  write_csv(csv);  // same bytes, fresh mtime
  const IngestResult warm = ingest(csv_path, &note);
  EXPECT_TRUE(warm.report.from_snapshot);
  EXPECT_EQ(warm.report.fingerprint, cold.report.fingerprint);
  expect_source_identical(*cold.series.heap(), warm.series);

  // The hit also refreshed the recorded source stat in place (when the
  // touch was visible in the mtime at all), so the snapshot header now
  // matches the source again and keeps the same fingerprint; a third
  // ingest hits regardless of which probe path it takes.
  const auto meta = read_snapshot_meta(warm.report.snapshot_path);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->fingerprint, cold.report.fingerprint);
  const IngestResult warm2 = ingest(csv_path, &note);
  EXPECT_TRUE(warm2.report.from_snapshot);
  expect_source_identical(*cold.series.heap(), warm2.series);
}

TEST_F(SnapshotTest, VerifyEnvForcesRehashButStillHits) {
  const std::string csv_path = write_csv("9, voice_retainability, 3, 0.91\n");
  std::string note;

  const IngestResult cold = ingest(csv_path, &note);
  EXPECT_FALSE(cold.report.from_snapshot);

  ::setenv("LITMUS_SNAPSHOT_VERIFY", "1", 1);
  const IngestResult warm = ingest(csv_path, &note);
  ::unsetenv("LITMUS_SNAPSHOT_VERIFY");
  EXPECT_TRUE(warm.report.from_snapshot);
  EXPECT_EQ(warm.report.fingerprint, cold.report.fingerprint);
  expect_source_identical(*cold.series.heap(), warm.series);
}

}  // namespace
}  // namespace litmus::io

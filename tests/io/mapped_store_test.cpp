// Mapped columnar store tests: bit-identity of the zero-copy provider
// against the heap SeriesStore path, rejection of every corruption class
// (bad magic, truncation, checksum flip, a directory) instead of
// half-populating, a deterministic mutation sweep over the one
// `.litmus-snap` reader (this binary runs under ASan+UBSan in CI), and
// lock-free concurrent readers (and under TSan).
#include "io/mapped_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.h"
#include "io/store.h"
#include "obs/manifest.h"
#include "simkit/scale.h"

namespace litmus::io {
namespace {

namespace fs = std::filesystem;

class MappedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("litmus_mapped_store_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// A small scale corpus (two KPIs, a few clusters) whose snapshot the
  /// tests map. Generated once per test into the temp root.
  std::string make_snapshot() {
    sim::ScaleCorpusConfig cfg;
    cfg.elements = 120;
    cfg.cluster_size = 40;
    sim::write_scale_corpus((root_ / "corpus").string(), cfg);
    return (root_ / "corpus" / "series.litmus-snap").string();
  }

  /// Copies the snapshot and applies `mutate` to the copy's bytes.
  std::string corrupt_copy(const std::string& snap, const std::string& name,
                           void (*mutate)(std::string&)) {
    std::string bytes = read_bytes(snap);
    mutate(bytes);
    const std::string out = (root_ / name).string();
    write_bytes(out, bytes);
    return out;
  }

  static std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  fs::path root_;
};

TEST_F(MappedStoreTest, ProviderBitIdenticalToHeapStore) {
  const std::string snap = make_snapshot();
  std::string why;
  const auto mapped = MappedStore::open(snap, &why);
  ASSERT_NE(mapped, nullptr) << why;

  SeriesStore heap;
  for (const auto& e : mapped->entries())
    heap.put(net::ElementId{e.key.first}, e.key.second,
             ts::TimeSeries(e.view.start_bin,
                            std::vector<double>(e.view.values.begin(),
                                                e.view.values.end()),
                            e.view.bin_minutes));
  ASSERT_EQ(mapped->size(), heap.size());

  const core::SeriesProvider pm = mapped->provider();
  const core::SeriesProvider ph = heap.provider();
  // Window shapes: fully inside the column, straddling its start, its
  // end, and fully outside — the kMissing-padding paths must agree too.
  struct Window {
    std::int64_t start;
    std::size_t n;
  };
  const Window windows[] = {{-48, 24}, {-60, 24}, {10, 40}, {100, 8},
                            {-200, 8}, {-48, 72}};
  for (const auto& entry : mapped->entries()) {
    for (const auto& w : windows) {
      const ts::TimeSeries a =
          pm(net::ElementId{entry.key.first}, entry.key.second, w.start, w.n);
      const ts::TimeSeries b =
          ph(net::ElementId{entry.key.first}, entry.key.second, w.start, w.n);
      ASSERT_EQ(a.start_bin(), b.start_bin());
      ASSERT_EQ(a.values().size(), b.values().size());
      // memcmp, not ==: NaN missing bins must match bit for bit.
      ASSERT_EQ(std::memcmp(a.values().data(), b.values().data(),
                            a.values().size() * sizeof(double)),
                0)
          << "element " << entry.key.first << " window "
          << w.start << "+" << w.n;
    }
  }
}

TEST_F(MappedStoreTest, UnknownSeriesIsAllMissingLikeHeap) {
  const std::string snap = make_snapshot();
  const auto mapped = MappedStore::open(snap);
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(mapped->find(net::ElementId{999999},
                         kpi::KpiId::kVoiceRetainability),
            nullptr);
  const ts::TimeSeries t = mapped->provider()(
      net::ElementId{999999}, kpi::KpiId::kVoiceRetainability, -48, 24);
  ASSERT_EQ(t.values().size(), 24u);
  for (const double v : t.values()) EXPECT_TRUE(std::isnan(v));
}

TEST_F(MappedStoreTest, RejectsBadMagic) {
  const std::string snap = make_snapshot();
  const std::string bad = corrupt_copy(
      snap, "bad_magic.litmus-snap", [](std::string& b) { b[0] ^= 0xFF; });
  std::string why;
  EXPECT_EQ(MappedStore::open(bad, &why), nullptr);
  EXPECT_EQ(why, "bad magic");
  // The snapshot cache's header probe treats it as absent, too.
  EXPECT_FALSE(read_snapshot_meta(bad).has_value());
}

TEST_F(MappedStoreTest, RejectsTruncation) {
  const std::string snap = make_snapshot();
  // Header-level truncation and payload-level truncation both reject.
  for (const auto cut : {std::size_t{0}, std::size_t{10}, std::size_t{20},
                         sizeof(SnapshotHeader), sizeof(SnapshotHeader) + 4}) {
    const std::string path = (root_ / "short.litmus-snap").string();
    write_bytes(path, read_bytes(snap).substr(0, cut));
    std::string why;
    EXPECT_EQ(MappedStore::open(path, &why), nullptr) << cut;
    EXPECT_FALSE(why.empty());
  }
  for (void (*cut)(std::string&) :
       {+[](std::string& b) { b.resize(b.size() - 64); },
        +[](std::string& b) { b.resize(b.size() / 2); }}) {
    std::string why;
    EXPECT_EQ(MappedStore::open(corrupt_copy(snap, "short_body", cut), &why),
              nullptr);
    EXPECT_EQ(why, "payload size mismatch");
  }
}

TEST_F(MappedStoreTest, RejectsChecksumFlip) {
  const std::string snap = make_snapshot();
  // One bit in the middle of the payload, and one just past the first
  // record header: headers still parse, the FNV trailer does not match.
  for (void (*flip)(std::string&) :
       {+[](std::string& b) { b[b.size() / 2] ^= 0x01; },
        +[](std::string& b) { b[80] ^= 0x40; }}) {
    std::string why;
    EXPECT_EQ(MappedStore::open(corrupt_copy(snap, "bitflip", flip), &why),
              nullptr);
    EXPECT_EQ(why, "payload checksum mismatch");
  }
}

TEST_F(MappedStoreTest, RejectsBinRangeOverflow) {
  // A well-formed, checksummed record whose last bin lies past INT64_MAX:
  // serving it would overflow end_bin().
  const std::string snap = (root_ / "overflow.litmus-snap").string();
  {
    SnapshotWriter w(snap, 0, 0, 0);
    const double values[] = {0.5, 0.6, 0.7};
    w.append(1, kpi::KpiId::kVoiceRetainability,
             std::numeric_limits<std::int64_t>::max() - 1, 60, values);
  }
  std::string why;
  EXPECT_EQ(MappedStore::open(snap, &why), nullptr);
  EXPECT_EQ(why, "bin range overflows");
}

TEST_F(MappedStoreTest, RejectsDirectory) {
  // A directory reads as an empty file through a stream; the reason must
  // say what is wrong with the path, not report a truncated header.
  std::string why;
  EXPECT_EQ(MappedStore::open(root_.string(), &why), nullptr);
  EXPECT_NE(why.find(root_.string() + ": is a directory"), std::string::npos)
      << why;
}

// ---- mutation sweep over the one `.litmus-snap` reader --------------------
//
// A small snapshot (a few series, NaN cells included) is mutated byte by
// byte, cut at every length, and hit with a fixed-seed batch of random
// multi-byte mutations. Every outcome must be a clean rejection with a
// reason, or a store whose windows all copy cleanly; ASan+UBSan watch
// the reads.

class MappedStoreMutation : public MappedStoreTest {
 protected:
  void SetUp() override {
    MappedStoreTest::SetUp();
    SeriesStore store;
    store.put(net::ElementId{3}, kpi::KpiId::kVoiceRetainability,
              ts::TimeSeries(-6, {0.97, ts::kMissing, 0.95, 0.96,
                                  ts::kMissing, 0.98}));
    store.put(net::ElementId{3}, kpi::KpiId::kDataThroughput,
              ts::TimeSeries(0, {12.5, 13.0, ts::kMissing}, 1440));
    store.put(net::ElementId{9}, kpi::KpiId::kVoiceRetainability,
              ts::TimeSeries(2, {ts::kMissing, 0.5}));
    const std::string snap = (root_ / "small.litmus-snap").string();
    save_series_snapshot(snap, store, 0x1234u, 99u, 7u);
    good_ = read_bytes(snap);
    reference_ = MappedStore::open(snap);
    ASSERT_NE(reference_, nullptr);
    path_ = (root_ / "mutant.litmus-snap").string();
  }

  /// Opens `bytes` as a snapshot; `why` receives the reason on failure.
  std::unique_ptr<MappedStore> open(const std::string& bytes,
                                    std::string* why) const {
    write_bytes(path_, bytes);
    return MappedStore::open(path_, why);
  }

  std::string good_;
  std::string path_;
  std::unique_ptr<MappedStore> reference_;
};

void expect_same_entries(const MappedStore& a, const MappedStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ea = a.entries()[i];
    const auto& eb = b.entries()[i];
    EXPECT_EQ(ea.key, eb.key);
    EXPECT_EQ(ea.view.start_bin, eb.view.start_bin);
    EXPECT_EQ(ea.view.bin_minutes, eb.view.bin_minutes);
    ASSERT_EQ(ea.view.values.size(), eb.view.values.size());
    EXPECT_EQ(std::memcmp(ea.view.values.data(), eb.view.values.data(),
                          ea.view.values.size() * sizeof(double)),
              0);
  }
}

// Fetches each stored series through the provider, exactly and padded by
// two bins on each side where the bin arithmetic stays in range; the
// stored bits must come back and the padding must be kMissing.
void expect_windows_copy_cleanly(const MappedStore& m) {
  const core::SeriesProvider p = m.provider();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const auto& e : m.entries()) {
    const net::ElementId id{e.key.first};
    const std::size_t n = e.view.values.size();
    const ts::TimeSeries exact = p(id, e.key.second, e.view.start_bin, n);
    ASSERT_EQ(exact.size(), n);
    EXPECT_EQ(std::memcmp(exact.values().data(), e.view.values.data(),
                          n * sizeof(double)),
              0);
    if (e.view.start_bin < kMin + 2 || e.view.end_bin() > kMax - 2) continue;
    const ts::TimeSeries padded =
        p(id, e.key.second, e.view.start_bin - 2, n + 4);
    ASSERT_EQ(padded.size(), n + 4);
    for (const std::size_t i : {std::size_t{0}, std::size_t{1}, n + 2, n + 3})
      EXPECT_TRUE(std::isnan(padded[i]));
  }
}

TEST_F(MappedStoreMutation, EveryByteFlipFailsOutsideTheSourceIdentity) {
  // Offsets 16-39 hold the source fingerprint, byte count and mtime: the
  // snapshot cache judges those, not the reader, and the checksum does
  // not cover them. Anywhere else, one changed byte always changes the
  // FNV-1a sum or breaks a header check.
  for (std::size_t i = 0; i < good_.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string bytes = good_;
      bytes[i] = static_cast<char>(bytes[i] ^ mask);
      std::string why;
      const auto m = open(bytes, &why);
      if (i >= 16 && i < 40) {
        ASSERT_NE(m, nullptr) << "offset " << i << ": " << why;
        expect_same_entries(*reference_, *m);
      } else {
        EXPECT_EQ(m, nullptr) << "offset " << i << " mask " << int(mask);
        EXPECT_FALSE(why.empty()) << "offset " << i;
      }
    }
  }
}

TEST_F(MappedStoreMutation, EveryTruncationFails) {
  for (std::size_t len = 0; len < good_.size(); ++len) {
    std::string why;
    EXPECT_EQ(open(good_.substr(0, len), &why), nullptr) << "length " << len;
    EXPECT_FALSE(why.empty()) << "length " << len;
  }
}

TEST_F(MappedStoreMutation, RandomMutationsFailOrServeCleanly) {
  // Half the mutants get their checksum recomputed, so the record walk
  // (counts, KPI ids, bin ranges, key order) sees corrupt structure
  // rather than the checksum catching everything first.
  std::mt19937_64 rng(20130209);
  const std::size_t payload_end = good_.size() - sizeof(std::uint64_t);
  std::size_t opened = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string bytes = good_;
    const int edits = 2 + static_cast<int>(rng() % 7);
    for (int k = 0; k < edits; ++k)
      bytes[rng() % bytes.size()] = static_cast<char>(rng());
    if (trial % 2 == 1) {
      const std::uint64_t fnv =
          obs::fnv1a64(bytes.data() + sizeof(SnapshotHeader),
                       payload_end - sizeof(SnapshotHeader));
      std::memcpy(bytes.data() + payload_end, &fnv, sizeof fnv);
    }
    std::string why;
    const auto m = open(bytes, &why);
    if (!m) {
      EXPECT_FALSE(why.empty()) << "trial " << trial;
      continue;
    }
    ++opened;
    expect_windows_copy_cleanly(*m);
  }
  EXPECT_GT(opened, 0u);  // some mutants parse, so the window path ran
}

TEST_F(MappedStoreTest, ConcurrentReadersAreBitIdentical) {
  // N threads fetch windows from one shared store — disjoint element
  // ranges first, then all threads over the same elements — and FNV-hash
  // the bytes they see. Every thread must observe exactly the bits a
  // serial reference pass observes. TSan (CI leg) checks the data-race
  // freedom claim; this test checks the values.
  const std::string snap = make_snapshot();
  const auto mapped = MappedStore::open(snap);
  ASSERT_NE(mapped, nullptr);
  const auto& entries = mapped->entries();
  ASSERT_FALSE(entries.empty());

  const auto hash_range = [&](std::size_t lo, std::size_t hi) {
    const core::SeriesProvider p = mapped->provider();
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = lo; i < hi; ++i) {
      const ts::TimeSeries t =
          p(net::ElementId{entries[i].key.first}, entries[i].key.second, -48, 72);
      for (const double v : t.values()) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 1099511628211ull;
      }
    }
    return h;
  };

  constexpr std::size_t kThreads = 8;
  const std::size_t per = entries.size() / kThreads;

  // Disjoint ranges.
  std::vector<std::uint64_t> serial(kThreads), threaded(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i)
    serial[i] = hash_range(i * per, (i + 1) * per);
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < kThreads; ++i)
      workers.emplace_back(
          [&, i] { threaded[i] = hash_range(i * per, (i + 1) * per); });
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(threaded, serial);

  // Overlapping: every thread reads the full store.
  const std::uint64_t all = hash_range(0, entries.size());
  std::vector<std::uint64_t> overlap(kThreads);
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < kThreads; ++i)
      workers.emplace_back(
          [&, i] { overlap[i] = hash_range(0, entries.size()); });
    for (auto& w : workers) w.join();
  }
  for (const std::uint64_t h : overlap) EXPECT_EQ(h, all);
}

}  // namespace
}  // namespace litmus::io

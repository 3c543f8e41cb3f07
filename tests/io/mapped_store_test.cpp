// Mapped columnar store tests: bit-identity of the zero-copy provider
// against the heap SeriesStore path, rejection of every corruption class
// (bad magic, truncation, checksum flip) instead of half-populating, and
// lock-free concurrent readers (this binary runs under TSan in CI).
#include "io/mapped_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.h"
#include "io/store.h"
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
    std::ifstream in(snap, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    mutate(bytes);
    const fs::path out = root_ / name;
    std::ofstream(out, std::ios::binary) << bytes;
    return out.string();
  }

  fs::path root_;
};

TEST_F(MappedStoreTest, ProviderBitIdenticalToHeapStore) {
  const std::string snap = make_snapshot();
  std::string why;
  const auto mapped = MappedStore::open(snap, &why);
  ASSERT_NE(mapped, nullptr) << why;

  SeriesStore heap;
  ASSERT_EQ(load_series_snapshot(snap, heap, 0, 0, &why),
            SnapshotLoad::kLoaded)
      << why;
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
  EXPECT_FALSE(why.empty());
}

TEST_F(MappedStoreTest, RejectsTruncation) {
  const std::string snap = make_snapshot();
  // Header-level truncation and payload-level truncation both reject.
  const std::string short_header = corrupt_copy(
      snap, "short_header.litmus-snap",
      [](std::string& b) { b.resize(20); });
  const std::string short_body = corrupt_copy(
      snap, "short_body.litmus-snap",
      [](std::string& b) { b.resize(b.size() - 64); });
  std::string why;
  EXPECT_EQ(MappedStore::open(short_header, &why), nullptr);
  EXPECT_FALSE(why.empty());
  EXPECT_EQ(MappedStore::open(short_body, &why), nullptr);
  EXPECT_FALSE(why.empty());
}

TEST_F(MappedStoreTest, RejectsChecksumFlip) {
  const std::string snap = make_snapshot();
  // One bit in the middle of the payload: headers still parse, the FNV
  // trailer does not match.
  const std::string bad = corrupt_copy(
      snap, "bitflip.litmus-snap",
      [](std::string& b) { b[b.size() / 2] ^= 0x01; });
  std::string why;
  EXPECT_EQ(MappedStore::open(bad, &why), nullptr);
  EXPECT_NE(why.find("checksum"), std::string::npos) << why;
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

#include "litmus/panel_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <vector>

#include "litmus/spatial_regression.h"
#include "parallel/pool.h"
#include "test_windows.h"
#include "tsmath/matrix.h"
#include "tsmath/random.h"

namespace litmus::core {
namespace {

ts::Matrix random_design(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ts::Rng rng(seed);
  ts::Matrix m(rows, cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) m(r, c) = rng.normal();
  return m;
}

TEST(PanelKeyTest, FingerprintIsContentDeterministic) {
  const ts::Matrix a = random_design(64, 6, 1);
  ts::Matrix b = random_design(64, 6, 1);
  EXPECT_EQ(fingerprint_design(a), fingerprint_design(b));
  // One changed value, one changed bin of missingness, one changed shape —
  // each must move the key.
  b(10, 3) += 1e-9;
  EXPECT_NE(fingerprint_design(a), fingerprint_design(b));
  ts::Matrix c = random_design(64, 6, 1);
  c(0, 0) = ts::kMissing;
  EXPECT_NE(fingerprint_design(a), fingerprint_design(c));
  EXPECT_NE(fingerprint_design(a),
            fingerprint_design(random_design(66, 6, 1)));
}

TEST(PanelCacheTest, HitsMissesAndSharing) {
  PanelCache cache(8u << 20);
  const ts::Matrix x = random_design(128, 8, 7);
  const PanelKey key = fingerprint_design(x);
  int builds = 0;
  auto build = [&] {
    ++builds;
    return ts::GramPanel::build(x);
  };
  const auto p1 = cache.get_or_build(key, build);
  const auto p2 = cache.get_or_build(key, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(p1.get(), p2.get());  // literally the same panel
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, p1->bytes());
}

TEST(PanelCacheTest, ZeroCapacityDisablesStorage) {
  PanelCache cache(0);
  const ts::Matrix x = random_design(64, 4, 3);
  const PanelKey key = fingerprint_design(x);
  int builds = 0;
  auto build = [&] {
    ++builds;
    return ts::GramPanel::build(x);
  };
  const auto p1 = cache.get_or_build(key, build);
  const auto p2 = cache.get_or_build(key, build);
  ASSERT_TRUE(p1 && p2);
  EXPECT_TRUE(p1->ok());
  EXPECT_EQ(builds, 2);  // every call builds
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(PanelCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Budget sized for a couple of panels per shard slice; inserting many
  // distinct panels must evict older ones rather than grow unbounded, and
  // handles held by callers must survive their entry's eviction.
  const ts::Matrix probe = random_design(256, 16, 0);
  const std::size_t one = ts::GramPanel::build(probe).bytes();
  PanelCache cache(one * 16);
  std::vector<PanelCache::PanelPtr> held;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const ts::Matrix x = random_design(256, 16, 1000 + i);
    held.push_back(cache.get_or_build(fingerprint_design(x),
                                      [&] { return ts::GramPanel::build(x); }));
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 24u);
  // 24 equal-size panels against a 16-panel budget over 8 shards: some
  // shard received three or more (pigeonhole) and had to evict.
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, one * 16);
  // Evicted panels stay alive through the shared_ptr we kept.
  for (const auto& p : held) {
    ASSERT_TRUE(p);
    EXPECT_TRUE(p->ok());
    EXPECT_EQ(p->panel_rows(), 256u);
  }
}

TEST(PanelCacheTest, ShrinkingCapacityEvictsAndClearDropsAll) {
  PanelCache cache(64u << 20);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const ts::Matrix x = random_design(128, 8, 2000 + i);
    (void)cache.get_or_build(fingerprint_design(x),
                             [&] { return ts::GramPanel::build(x); });
  }
  EXPECT_EQ(cache.stats().entries, 8u);
  cache.set_capacity_bytes(1);  // almost nothing fits
  EXPECT_LT(cache.stats().entries, 8u);
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.misses, 8u);  // counters survive clear()
}

// The cache under the parallel pool: many workers race get_or_build over a
// small key space with a budget tight enough to force concurrent eviction.
// Every returned panel must be valid and bit-identical to a fresh build of
// its design.
TEST(PanelCacheTest, ConcurrentGetOrBuildUnderThreadPool) {
  constexpr std::size_t kDesigns = 6;
  std::vector<ts::Matrix> designs;
  std::vector<PanelKey> keys;
  std::vector<ts::GramPanel> fresh;
  for (std::size_t i = 0; i < kDesigns; ++i) {
    designs.push_back(random_design(192, 12, 3000 + i));
    keys.push_back(fingerprint_design(designs[i]));
    fresh.push_back(ts::GramPanel::build(designs[i]));
  }
  PanelCache cache(fresh[0].bytes() * 3);  // forces evictions while racing

  const std::size_t prev_threads = par::threads();
  par::set_threads(4);
  constexpr std::size_t kOps = 256;
  std::atomic<std::size_t> bad{0};
  par::parallel_for(kOps, [&](std::size_t op) {
    const std::size_t i = (op * 2654435761u) % kDesigns;
    const auto p = cache.get_or_build(
        keys[i], [&] { return ts::GramPanel::build(designs[i]); });
    if (!p || !p->ok() || p->panel_rows() != fresh[i].panel_rows() ||
        p->cols() != fresh[i].cols() || p->bytes() != fresh[i].bytes())
      bad.fetch_add(1);
  });
  par::set_threads(prev_threads);

  EXPECT_EQ(bad.load(), 0u);
  const auto s = cache.stats();
  // Every operation resolves to exactly one hit or one miss, whatever the
  // interleaving (hit counts themselves are timing-dependent under this
  // deliberately thrashing budget — the deterministic hit behavior is
  // covered by HitsMissesAndSharing).
  EXPECT_EQ(s.hits + s.misses, kOps);
  EXPECT_GT(s.entries, 0u);
  EXPECT_EQ(s.bytes, s.entries * fresh[0].bytes());  // equal-size panels
}

void expect_bit_identical(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.start_bin(), b.start_bin());
  if (!a.empty())
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          a.size() * sizeof(double)),
              0);
}

// The determinism contract of DESIGN.md §10: verdicts and forecasts are
// bit-identical with the cache on (warm or cold) and off.
TEST(PanelCacheTest, CacheOnAndOffProduceBitIdenticalResults) {
  testing::WindowSpec spec;
  spec.n_controls = 12;
  spec.seed = 33;
  const ElementWindows w = testing::make_windows(spec);
  const RobustSpatialRegression alg;

  PanelCache& cache = PanelCache::global();
  const std::size_t prev_capacity = cache.capacity_bytes();
  cache.set_capacity_bytes(0);  // off
  RobustSpatialRegression::Forecast off;
  ASSERT_TRUE(alg.forecast(w, off));
  const AnalysisOutcome off_outcome =
      alg.assess(w, kpi::KpiId::kVoiceRetainability);

  cache.set_capacity_bytes(32u << 20);  // on: first run cold, second warm
  cache.clear();
  for (int run = 0; run < 2; ++run) {
    RobustSpatialRegression::Forecast on;
    ASSERT_TRUE(alg.forecast(w, on));
    expect_bit_identical(off.median_forecast_before, on.median_forecast_before);
    expect_bit_identical(off.median_forecast_after, on.median_forecast_after);
    expect_bit_identical(off.forecast_diff_before, on.forecast_diff_before);
    expect_bit_identical(off.forecast_diff_after, on.forecast_diff_after);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(off.median_r_squared),
              std::bit_cast<std::uint64_t>(on.median_r_squared));
    EXPECT_EQ(off.successful_iterations, on.successful_iterations);
    const AnalysisOutcome on_outcome =
        alg.assess(w, kpi::KpiId::kVoiceRetainability);
    EXPECT_EQ(on_outcome.verdict, off_outcome.verdict);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(on_outcome.p_value),
              std::bit_cast<std::uint64_t>(off_outcome.p_value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(on_outcome.effect_kpi_units),
              std::bit_cast<std::uint64_t>(off_outcome.effect_kpi_units));
  }
  EXPECT_GT(cache.stats().hits, 0u);  // the warm runs actually hit

  cache.clear();
  cache.set_capacity_bytes(prev_capacity);
}

// Two study elements regressing onto the same control panel share one
// build: the second element's panel comes from the cache.
TEST(PanelCacheTest, StudyElementsSharingControlsShareOnePanel) {
  testing::WindowSpec spec;
  spec.n_controls = 10;
  spec.seed = 5;
  const ElementWindows first = testing::make_windows(spec);
  spec.seed = 6;  // different study series...
  ElementWindows second = testing::make_windows(spec);
  second.control_before = first.control_before;  // ...same control panel
  second.control_after = first.control_after;

  PanelCache& cache = PanelCache::global();
  const std::size_t prev_capacity = cache.capacity_bytes();
  cache.set_capacity_bytes(32u << 20);
  cache.clear();
  const auto base = cache.stats();

  const RobustSpatialRegression alg;
  RobustSpatialRegression::Forecast fc;
  ASSERT_TRUE(alg.forecast(first, fc));
  ASSERT_TRUE(alg.forecast(second, fc));

  const auto s = cache.stats();
  // Only the before-window design is Gram-built, so the two forecasts make
  // exactly one miss (the first build of the shared panel) and one hit.
  EXPECT_EQ(s.misses - base.misses, 1u);
  EXPECT_GE(s.hits - base.hits, 1u);

  cache.clear();
  cache.set_capacity_bytes(prev_capacity);
}

}  // namespace
}  // namespace litmus::core

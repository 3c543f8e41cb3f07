#include "litmus/panel_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <memory>
#include <numeric>
#include <vector>

#include "cellnet/builder.h"
#include "litmus/assessor.h"
#include "litmus/batch.h"
#include "litmus/monitor.h"
#include "litmus/spatial_regression.h"
#include "parallel/pool.h"
#include "simkit/generator.h"
#include "test_windows.h"
#include "tsmath/linreg.h"
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

PanelCache::PanelPtr get(PanelCache& cache, const ts::Matrix& x) {
  return cache.get_or_build(fingerprint_design(x),
                            [&] { return ts::GramPanel::build(x); });
}

/// A panel's observable bits: its shape and the full-subset solve of one
/// fixed response.
std::vector<std::uint64_t> panel_bits(const ts::GramPanel& p) {
  std::vector<double> y(p.design_rows());
  ts::Rng rng(17);
  for (double& v : y) v = rng.normal();
  ts::GramSystem sys;
  std::vector<std::uint64_t> bits = {p.panel_rows(), p.cols(),
                                     p.design_rows(),
                                     sys.bind(p, y, true) ? 1u : 0u};
  std::vector<std::size_t> cols(p.cols());
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  ts::FactorBatch factors;
  ts::SolveBatch solved;
  ts::LinearModel model;
  if (sys.ok()) {
    sys.factor(cols, cols.size(), factors);
    sys.solve(factors, solved);
    if (sys.model(factors, solved, 0, model)) {
      bits.push_back(std::bit_cast<std::uint64_t>(model.intercept));
      for (const double c : model.coefficients)
        bits.push_back(std::bit_cast<std::uint64_t>(c));
    }
  }
  return bits;
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
  PanelCache cache;
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
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
}

// The ring keeps the kSlots most recently built panels: keys that fit hit
// on every later round, one more distinct key overwrites the oldest slot,
// a hit does not save an entry from its turn, and a panel a caller still
// holds outlives its slot.
TEST(PanelCacheTest, RingOverwritesOldestSlot) {
  PanelCache cache;
  std::vector<ts::Matrix> designs;
  for (std::uint64_t i = 0; i <= PanelCache::kSlots; ++i)
    designs.push_back(random_design(48, 4, 1000 + i));

  const PanelCache::PanelPtr first = get(cache, designs[0]);
  for (std::size_t i = 1; i < PanelCache::kSlots; ++i) get(cache, designs[i]);
  EXPECT_EQ(cache.stats().entries, PanelCache::kSlots);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(get(cache, designs[0]), first);  // a hit: first-in stays first
  for (std::size_t i = 1; i < PanelCache::kSlots; ++i) get(cache, designs[i]);
  EXPECT_EQ(cache.stats().hits, PanelCache::kSlots);

  get(cache, designs[PanelCache::kSlots]);  // one key more than fits
  auto s = cache.stats();
  EXPECT_EQ(s.misses, PanelCache::kSlots + 1);
  EXPECT_EQ(s.hits, PanelCache::kSlots);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, PanelCache::kSlots);
  // The held panel survived its slot, and the key now builds again.
  ASSERT_TRUE(first);
  EXPECT_TRUE(first->ok());
  EXPECT_EQ(first->design_rows(), 48u);
  const PanelCache::PanelPtr rebuilt = get(cache, designs[0]);
  EXPECT_NE(rebuilt, first);
  EXPECT_EQ(panel_bits(*rebuilt), panel_bits(*first));
  s = cache.stats();
  EXPECT_EQ(s.misses, PanelCache::kSlots + 2);
  EXPECT_EQ(s.evictions, 2u);
  // The second key was overwritten in turn; the newest ones still hit.
  get(cache, designs[PanelCache::kSlots]);
  EXPECT_EQ(cache.stats().hits, PanelCache::kSlots + 1);
}

TEST(PanelCacheTest, ClearDropsEveryEntryAndKeepsCounters) {
  PanelCache cache;
  for (std::uint64_t i = 0; i < PanelCache::kSlots; ++i)
    get(cache, random_design(128, 8, 2000 + i));
  EXPECT_EQ(cache.stats().entries, PanelCache::kSlots);
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.misses, PanelCache::kSlots);  // counters survive clear()
  get(cache, random_design(128, 8, 2000));
  // Cleared keys build again.
  EXPECT_EQ(cache.stats().misses, PanelCache::kSlots + 1);
}

// The cache under the parallel pool: workers race get_or_build over more
// distinct keys than the ring holds, so slots are overwritten while other
// workers read them. Every returned panel must be bit-identical to a fresh
// build of its design.
TEST(PanelCacheTest, ConcurrentGetOrBuildUnderThreadPool) {
  constexpr std::size_t kDesigns = PanelCache::kSlots + 32;
  std::vector<ts::Matrix> designs;
  std::vector<PanelKey> keys;
  std::vector<std::vector<std::uint64_t>> fresh;
  for (std::size_t i = 0; i < kDesigns; ++i) {
    designs.push_back(random_design(96, 6, 3000 + i));
    keys.push_back(fingerprint_design(designs[i]));
    fresh.push_back(panel_bits(ts::GramPanel::build(designs[i])));
  }
  PanelCache cache;

  const std::size_t prev_threads = par::threads();
  par::set_threads(4);
  constexpr std::size_t kOps = 1024;
  std::atomic<std::size_t> bad{0};
  par::parallel_for(kOps, [&](std::size_t op) {
    const std::size_t i = (op * 2654435761u) % kDesigns;
    const auto p = cache.get_or_build(
        keys[i], [&] { return ts::GramPanel::build(designs[i]); });
    if (!p || panel_bits(*p) != fresh[i]) bad.fetch_add(1);
  });
  par::set_threads(prev_threads);

  EXPECT_EQ(bad.load(), 0u);
  const auto s = cache.stats();
  // Every lookup resolves to exactly one hit or one miss, whatever the
  // interleaving; hit counts themselves depend on timing.
  EXPECT_EQ(s.hits + s.misses, kOps);
  EXPECT_GE(s.misses, kDesigns);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.entries, PanelCache::kSlots);
}

// No analysis path looks the process-wide ring up: a lone assess, an
// assess_windows whose third element's control window differs from the
// block's, two monitor steps and a three-record batch each take their Gram
// panel from the assessment's design block or build it in their thread's
// scratch, so none of them moves the ring's counters.
TEST(PanelCacheTest, NoAnalysisPathLooksItUp) {
  PanelCache::Stats before = PanelCache::global().stats();
  const auto expect_untouched = [&before](const char* path) {
    const PanelCache::Stats s = PanelCache::global().stats();
    EXPECT_EQ(s.hits, before.hits) << path;
    EXPECT_EQ(s.misses, before.misses) << path;
    EXPECT_EQ(s.evictions, before.evictions) << path;
    EXPECT_EQ(s.entries, before.entries) << path;
    before = s;
  };
  constexpr kpi::KpiId kKpi = kpi::KpiId::kVoiceRetainability;

  testing::WindowSpec spec;
  spec.n_controls = 12;
  spec.seed = 33;
  const ElementWindows lone = testing::make_windows(spec);
  EXPECT_FALSE(RobustSpatialRegression().assess(lone, kKpi).degenerate);
  expect_untouched("single-element assess");

  std::vector<ElementWindows> windows(3, lone);
  spec.seed = 34;  // a different study series over the same controls
  windows[1].study_before = testing::make_windows(spec).study_before;
  windows[2].control_before[4][10] += 1e-3;  // no block for this one
  const std::vector<net::ElementId> study = {
      net::ElementId{1}, net::ElementId{2}, net::ElementId{3}};
  std::vector<net::ElementId> controls;
  for (std::uint32_t c = 0; c < spec.n_controls; ++c)
    controls.push_back(net::ElementId{100 + c});
  const net::Topology empty;
  const Assessor assessor(
      empty, [](net::ElementId, kpi::KpiId, std::int64_t start,
                std::size_t n) { return ts::TimeSeries(start, n, 60); });
  const ChangeAssessment group =
      assessor.assess_windows(study, controls, windows, kKpi, 0);
  EXPECT_EQ(group.per_element.size(), 3u);
  expect_untouched("assess_windows");

  const net::Topology topo =
      net::build_small_region(net::Region::kMidwest, 733, 6, 4);
  const auto rncs = topo.of_kind(net::ElementKind::kRnc);
  const sim::KpiGenerator gen(topo, sim::GeneratorConfig{.seed = 733});
  const SeriesProvider provider = [&gen](net::ElementId e, kpi::KpiId k,
                                         std::int64_t s, std::size_t n) {
    return gen.kpi_series(e, k, s, n);
  };
  ChangeMonitor monitor(provider, rncs[0],
                        std::vector<net::ElementId>(rncs.begin() + 1,
                                                    rncs.end()),
                        kKpi, 0);
  std::size_t readings = monitor.advance(3 * 24).size();
  readings += monitor.advance(4 * 24).size();
  EXPECT_EQ(readings, 2u);
  expect_untouched("monitor steps");

  chg::ChangeLog log;
  for (std::size_t i = 0; i < 3; ++i) {
    chg::ChangeRecord r;
    r.element = rncs[i];
    r.bin = static_cast<std::int64_t>(i) * 1000;
    r.type = chg::ChangeType::kConfigChange;
    r.target_kpi = kKpi;
    log.add(r);
  }
  EXPECT_EQ(assess_change_log(log, topo, provider).items.size(), 3u);
  expect_untouched("change-log batch");
}

}  // namespace
}  // namespace litmus::core

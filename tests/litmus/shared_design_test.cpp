// The group path equals the element path: Assessor::assess_windows over
// study elements that share a control group reads one SharedDesign block
// (designs, panel, subsets and Cholesky factors), and every element's
// outcome must bit-match a per-element RobustSpatialRegression::assess
// with the panel cache cleared. The groups cover each way an element
// leaves the block: y missing on panel rows (a reduced G keeps its own
// factors), fewer observed before-bins (a different k samples on its own,
// on a reduced G or on the panel's), a control window that differs in one
// bin (no block at all), and a near-collinear control pair whose shared
// factors fail the pivot check. A bigger budget shares only as many factors
// as the block's byte cap holds.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "litmus/assessor.h"
#include "litmus/panel_cache.h"
#include "obs/metrics.h"
#include "parallel/pool.h"
#include "test_windows.h"
#include "tsmath/random.h"

namespace litmus::core {
namespace {

using testing::WindowSpec;
using testing::make_windows;

constexpr kpi::KpiId kKpi = kpi::KpiId::kVoiceRetainability;
constexpr const char* kFitCounters[] = {"litmus.fit.gram",
                                        "litmus.fit.qr_fallback",
                                        "litmus.fit.failures",
                                        "litmus.iterations"};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same(const AnalysisOutcome& a, const AnalysisOutcome& b) {
  EXPECT_EQ(a.degenerate, b.degenerate);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.relative, b.relative);
  EXPECT_TRUE(same_bits(a.p_value, b.p_value)) << a.p_value << " " << b.p_value;
  EXPECT_TRUE(same_bits(a.statistic, b.statistic));
  EXPECT_TRUE(same_bits(a.effect_kpi_units, b.effect_kpi_units));
  EXPECT_TRUE(same_bits(a.fit_r_squared, b.fit_r_squared));
  const VerdictExplanation& x = a.explanation;
  const VerdictExplanation& y = b.explanation;
  EXPECT_STREQ(x.analyzer, y.analyzer);
  EXPECT_STREQ(x.test, y.test);
  EXPECT_STREQ(x.aggregation, y.aggregation);
  EXPECT_EQ(x.n_controls, y.n_controls);
  EXPECT_EQ(x.effective_k, y.effective_k);
  EXPECT_EQ(x.iterations_requested, y.iterations_requested);
  EXPECT_EQ(x.iterations_used, y.iterations_used);
  EXPECT_EQ(x.successful_iterations, y.successful_iterations);
  EXPECT_EQ(x.adaptive_sampling, y.adaptive_sampling);
  EXPECT_STREQ(x.stop_reason, y.stop_reason);
  EXPECT_EQ(x.n_after, y.n_after);
  EXPECT_EQ(x.n_before, y.n_before);
  EXPECT_TRUE(same_bits(x.alpha, y.alpha));
  EXPECT_TRUE(same_bits(x.effect_floor_kpi_units, y.effect_floor_kpi_units));
  EXPECT_EQ(x.material, y.material);
  EXPECT_EQ(x.note, y.note);
}

struct Group {
  std::vector<ElementWindows> windows;
  std::vector<net::ElementId> study;
  std::vector<net::ElementId> controls;

  // Adds an element over `base`'s control windows whose study is
  // make_windows(spec) shifted by `shift` sigma.
  void add(const ElementWindows& base, WindowSpec spec, double shift) {
    spec.study_shift_sigma = shift;
    const ElementWindows own = make_windows(spec);
    ElementWindows w = base;
    w.study_before = own.study_before;
    w.study_after = own.study_after;
    add(std::move(w));
  }
  void add(ElementWindows w) {
    study.push_back(
        net::ElementId{static_cast<std::uint32_t>(1 + study.size())});
    if (controls.empty())
      for (std::size_t c = 0; c < w.control_before.size(); ++c)
        controls.push_back(
            net::ElementId{static_cast<std::uint32_t>(1000 + c)});
    windows.push_back(std::move(w));
  }
};

// Six study elements over one control group of 20, where controls 0 and 1
// are collinear to within 1e-8 (their sub-Gram fails the Cholesky pivot
// floor, and QR still fits them).
Group make_group() {
  WindowSpec spec;
  spec.n_controls = 20;
  spec.before = 168;
  spec.after = 96;
  spec.seed = 23;
  ElementWindows base = make_windows(spec);
  ts::Rng rng(99);
  for (std::size_t i = 0; i < base.control_before[0].size(); ++i)
    base.control_before[1][i] =
        base.control_before[0][i] + 1e-8 * rng.normal();
  for (std::size_t i = 0; i < base.control_after[0].size(); ++i)
    base.control_after[1][i] = base.control_after[0][i] + 1e-8 * rng.normal();

  Group g;
  // Elements 0-2: plain, with a quiet, an improved and a degraded study.
  for (const double shift : {0.0, 2.0, -2.0}) g.add(base, spec, shift);
  // Element 3: y missing on three panel rows, so its G is reduced; its k
  // is the block's.
  ElementWindows reduced = g.windows[1];
  for (const std::size_t bin : {3u, 70u, 150u})
    reduced.study_before[bin] = ts::kMissing;
  // Element 4: 18 observed before-bins cap k at 13, one under the block's,
  // and reduce its G.
  ElementWindows fewer = g.windows[2];
  for (std::size_t bin = 18; bin < spec.before; ++bin)
    fewer.study_before[bin] = ts::kMissing;
  // Element 5: one control differs in one before-bin, so no block.
  ElementWindows other = g.windows[1];
  other.control_before[5][40] += 1e-3;
  g.add(std::move(reduced));
  g.add(std::move(fewer));
  g.add(std::move(other));
  return g;
}

struct ObsGuard {
  ObsGuard() {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::Registry::global().reset();
    par::set_threads(0);
  }
};

std::vector<std::uint64_t> fit_counters() {
  std::vector<std::uint64_t> v;
  for (const char* name : kFitCounters)
    v.push_back(obs::Registry::global().counter(name).value());
  return v;
}

std::uint64_t cache_lookups() {
  const PanelCache::Stats s = PanelCache::global().stats();
  return s.hits + s.misses;
}

// What the element path saw: each element's outcome, the fit counters, and
// how many panel-cache lookups the group path then made.
struct ElementPath {
  std::vector<AnalysisOutcome> outcomes;
  std::vector<std::uint64_t> counters;
  std::uint64_t group_cache_lookups = 0;
};

// Runs the group through one assess_windows and through a loop of
// single-element assesses with the cache cleared, and expects the same
// bits and the same fit counters from both.
ElementPath check_group_matches_loop(const Group& g,
                                     const SpatialRegressionParams& params,
                                     std::size_t threads) {
  SCOPED_TRACE("threads " + std::to_string(threads) + ", adaptive " +
               (params.adaptive_sampling ? "on" : "off"));
  AssessmentConfig config;
  config.regression = params;
  const net::Topology topo;
  const Assessor assessor(
      topo,
      [](net::ElementId, kpi::KpiId, std::int64_t start, std::size_t n) {
        return ts::TimeSeries(start, n, 60);
      },
      config);
  const RobustSpatialRegression alone(params);
  par::set_threads(threads);

  ElementPath loop;
  obs::Registry::global().reset();
  for (const ElementWindows& w : g.windows) {
    PanelCache::global().clear();
    loop.outcomes.push_back(alone.assess(w, kKpi));
  }
  loop.counters = fit_counters();

  obs::Registry::global().reset();
  PanelCache::global().clear();
  const std::uint64_t lookups0 = cache_lookups();
  const ChangeAssessment group =
      assessor.assess_windows(g.study, g.controls, g.windows, kKpi, 0);
  loop.group_cache_lookups = cache_lookups() - lookups0;
  EXPECT_EQ(fit_counters(), loop.counters);

  EXPECT_EQ(group.per_element.size(), loop.outcomes.size());
  for (std::size_t i = 0;
       i < loop.outcomes.size() && i < group.per_element.size(); ++i) {
    SCOPED_TRACE("element " + std::to_string(i));
    EXPECT_FALSE(loop.outcomes[i].degenerate);
    expect_same(group.per_element[i].outcome, loop.outcomes[i]);
  }
  return loop;
}

void check_mixed_group(std::size_t threads, bool adaptive) {
  ObsGuard guard;
  if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
  SpatialRegressionParams params;
  params.adaptive_sampling = adaptive;
  params.n_iterations = adaptive ? 100 : 25;
  const ElementPath loop =
      check_group_matches_loop(make_group(), params, threads);
  // Only element 5, whose control window differs, looked for a panel.
  EXPECT_EQ(loop.group_cache_lookups, 1u);
  // The elements cover what they claim: a different k, the collinear
  // pair's pivot failures going to QR, and fits on the Gram path.
  ASSERT_EQ(loop.outcomes.size(), 6u);
  EXPECT_EQ(loop.outcomes[4].explanation.effective_k + 1,
            loop.outcomes[0].explanation.effective_k);
  EXPECT_GT(loop.counters[0], 0u);
  EXPECT_GT(loop.counters[1], 0u);
}

TEST(Assessor, SharedDesignMatchesElementPathAtOneThread) {
  check_mixed_group(1, false);
  check_mixed_group(1, true);
}

TEST(Assessor, SharedDesignMatchesElementPathAtFourThreads) {
  check_mixed_group(4, false);
  check_mixed_group(4, true);
}

// An element whose k differs from the block's while its G is the panel's:
// control 7 misses before-bins 18 on, so the panel rows are bins 0-17, and
// element 1's y, observed on those rows only, caps its k at 13 against the
// block's 14 without reducing its G. It samples and factors on its own.
TEST(Assessor, SharedDesignLeavesAnotherKItsOwnSubsets) {
  WindowSpec spec;
  spec.n_controls = 20;
  spec.before = 168;
  spec.after = 96;
  spec.seed = 41;
  ElementWindows base = make_windows(spec);
  for (std::size_t bin = 18; bin < spec.before; ++bin)
    base.control_before[7][bin] = ts::kMissing;
  Group g;
  g.add(base, spec, 0.0);
  g.add(base, spec, 2.0);
  for (std::size_t bin = 18; bin < spec.before; ++bin)
    g.windows[1].study_before[bin] = ts::kMissing;

  for (const std::size_t threads : {1u, 4u})
    for (const bool adaptive : {false, true}) {
      ObsGuard guard;
      if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
      SpatialRegressionParams params;
      params.adaptive_sampling = adaptive;
      params.n_iterations = adaptive ? 100 : 25;
      const ElementPath loop = check_group_matches_loop(g, params, threads);
      EXPECT_EQ(loop.group_cache_lookups, 0u);
      ASSERT_EQ(loop.outcomes.size(), 2u);
      EXPECT_EQ(loop.outcomes[1].explanation.effective_k + 1,
                loop.outcomes[0].explanation.effective_k);
      EXPECT_GT(loop.counters[0], 0u);  // fits on the Gram path
    }
}

// A budget big enough that a factor per iteration would pass
// SharedDesign::kSharedFactorBytes: the block shares only the first
// iterations' factors, and each element factors the rest on its own.
TEST(Assessor, SharedDesignCapsItsFactors) {
  ObsGuard guard;
  if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
  WindowSpec spec;
  spec.n_controls = 43;
  spec.before = 48;
  spec.after = 16;
  spec.seed = 31;
  const ElementWindows base = make_windows(spec);
  Group g;
  g.add(base, spec, 0.0);
  g.add(base, spec, 2.0);

  SpatialRegressionParams params;
  params.n_iterations = 4500;
  const ElementPath loop = check_group_matches_loop(g, params, 1);
  EXPECT_EQ(loop.group_cache_lookups, 0u);
  const std::size_t k = loop.outcomes[0].explanation.effective_k;
  EXPECT_GT(params.n_iterations * (k + 1) * (k + 1) * sizeof(double),
            SharedDesign::kSharedFactorBytes);
  EXPECT_GT(loop.counters[0], 0u);  // fits on the Gram path
}

}  // namespace
}  // namespace litmus::core

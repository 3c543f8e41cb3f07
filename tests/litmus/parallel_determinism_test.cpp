// The contract of the parallel subsystem at the regression level: at 1, 2
// or 8 threads forecasts and outcomes are bit-identical and the sampling
// loop hands the pool no work (callers fan out across study elements or
// change records instead), and the Gram fast path changes performance,
// never answers.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "litmus/spatial_regression.h"
#include "obs/metrics.h"
#include "parallel/pool.h"
#include "test_windows.h"
#include "tsmath/timeseries.h"

namespace litmus::core {
namespace {

using testing::WindowSpec;
using testing::make_windows;

// NaN-safe bitwise equality (EXPECT_EQ on doubles rejects NaN == NaN, but
// missing forecast bins are NaN by design).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_identical(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  ASSERT_EQ(a.start_bin(), b.start_bin());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_bits(a[i], b[i])) << "bin " << i;
}

void expect_identical(const RobustSpatialRegression::Forecast& a,
                      const RobustSpatialRegression::Forecast& b) {
  EXPECT_EQ(a.effective_k, b.effective_k);
  EXPECT_EQ(a.successful_iterations, b.successful_iterations);
  EXPECT_TRUE(same_bits(a.median_r_squared, b.median_r_squared));
  expect_identical(a.median_forecast_before, b.median_forecast_before);
  expect_identical(a.median_forecast_after, b.median_forecast_after);
  expect_identical(a.forecast_diff_before, b.forecast_diff_before);
  expect_identical(a.forecast_diff_after, b.forecast_diff_after);
}

WindowSpec default_spec() {
  WindowSpec spec;
  spec.n_controls = 12;
  spec.study_shift_sigma = -2.0;
  spec.contamination = {{2, 3.0}};
  spec.seed = 11;
  return spec;
}

TEST(ParallelDeterminism, ForecastBitIdenticalAcrossThreadCounts) {
  const ElementWindows w = make_windows(default_spec());
  SpatialRegressionParams params;
  params.n_iterations = 31;  // not a multiple of any thread count
  const RobustSpatialRegression algo(params);

  par::set_threads(1);
  RobustSpatialRegression::Forecast sequential;
  ASSERT_TRUE(algo.forecast(w, sequential));

  for (const std::size_t n_threads : {2u, 8u}) {
    par::set_threads(n_threads);
    par::parallel_for(n_threads, [](std::size_t) {});  // warm the pool
    const std::uint64_t submitted = par::pool_stats().tasks_submitted;
    RobustSpatialRegression::Forecast parallel_run;
    ASSERT_TRUE(algo.forecast(w, parallel_run));
    EXPECT_EQ(par::pool_stats().tasks_submitted, submitted)
        << n_threads << " threads";
    expect_identical(sequential, parallel_run);
  }
  par::set_threads(1);
}

TEST(ParallelDeterminism, OutcomeBitIdenticalAcrossThreadCounts) {
  const ElementWindows w = make_windows(default_spec());
  const RobustSpatialRegression algo;

  par::set_threads(1);
  const AnalysisOutcome sequential = algo.assess(w, kpi::KpiId::kVoiceRetainability);
  ASSERT_FALSE(sequential.degenerate);

  for (const std::size_t n_threads : {2u, 8u}) {
    par::set_threads(n_threads);
    const AnalysisOutcome out = algo.assess(w, kpi::KpiId::kVoiceRetainability);
    EXPECT_EQ(out.relative, sequential.relative);
    EXPECT_EQ(out.verdict, sequential.verdict);
    EXPECT_TRUE(same_bits(out.p_value, sequential.p_value));
    EXPECT_TRUE(same_bits(out.statistic, sequential.statistic));
    EXPECT_TRUE(same_bits(out.effect_kpi_units, sequential.effect_kpi_units));
    EXPECT_TRUE(same_bits(out.fit_r_squared, sequential.fit_r_squared));
    EXPECT_EQ(out.explanation.successful_iterations,
              sequential.explanation.successful_iterations);
  }
  par::set_threads(1);
}

// The adaptive contract (ISSUE 10): stopping decisions are a pure function
// of (seed, completed-round results), so adaptive-on runs are bit-identical
// — verdicts, forecasts, AND iterations-used — at any thread count.
TEST(ParallelDeterminism, AdaptiveForecastBitIdenticalAcrossThreadCounts) {
  const ElementWindows w = make_windows(default_spec());
  SpatialRegressionParams params;
  params.adaptive_sampling = true;
  params.n_iterations = 31;  // not a multiple of any thread count
  const RobustSpatialRegression algo(params);

  par::set_threads(1);
  RobustSpatialRegression::Forecast sequential;
  ASSERT_TRUE(algo.forecast(w, sequential));

  for (const std::size_t n_threads : {4u, 16u}) {
    par::set_threads(n_threads);
    par::parallel_for(n_threads, [](std::size_t) {});  // warm the pool
    const std::uint64_t submitted = par::pool_stats().tasks_submitted;
    RobustSpatialRegression::Forecast parallel_run;
    ASSERT_TRUE(algo.forecast(w, parallel_run));
    EXPECT_EQ(par::pool_stats().tasks_submitted, submitted)
        << n_threads << " threads";
    EXPECT_EQ(parallel_run.iterations_attempted,
              sequential.iterations_attempted)
        << n_threads << " threads";
    EXPECT_EQ(parallel_run.stop_reason, sequential.stop_reason);
    expect_identical(sequential, parallel_run);
  }
  par::set_threads(1);
}

TEST(ParallelDeterminism, AdaptiveOutcomeBitIdenticalAcrossThreadCounts) {
  // An easy shift (no contamination) so the adaptive loop actually stops
  // early — the identity must hold on the early-stopped path, not just
  // when the budget runs out.
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  const ElementWindows w = make_windows(spec);
  SpatialRegressionParams params;
  params.adaptive_sampling = true;
  const RobustSpatialRegression algo(params);

  par::set_threads(1);
  const AnalysisOutcome sequential =
      algo.assess(w, kpi::KpiId::kVoiceRetainability);
  ASSERT_FALSE(sequential.degenerate);
  ASSERT_LT(sequential.explanation.iterations_used,
            sequential.explanation.iterations_requested);

  for (const std::size_t n_threads : {4u, 16u}) {
    par::set_threads(n_threads);
    const AnalysisOutcome out = algo.assess(w, kpi::KpiId::kVoiceRetainability);
    EXPECT_EQ(out.verdict, sequential.verdict);
    EXPECT_TRUE(same_bits(out.p_value, sequential.p_value));
    EXPECT_TRUE(same_bits(out.statistic, sequential.statistic));
    EXPECT_TRUE(same_bits(out.effect_kpi_units, sequential.effect_kpi_units));
    EXPECT_EQ(out.explanation.iterations_used,
              sequential.explanation.iterations_used);
    EXPECT_STREQ(out.explanation.stop_reason,
                 sequential.explanation.stop_reason);
  }
  par::set_threads(1);
}

TEST(ParallelDeterminism, GramFastPathAgreesWithQrOnCompletePanel) {
  const ElementWindows w = make_windows(default_spec());
  SpatialRegressionParams with_gram;
  with_gram.use_gram_fast_path = true;
  SpatialRegressionParams qr_only = with_gram;
  qr_only.use_gram_fast_path = false;

  RobustSpatialRegression::Forecast fast, slow;
  ASSERT_TRUE(RobustSpatialRegression(with_gram).forecast(w, fast));
  ASSERT_TRUE(RobustSpatialRegression(qr_only).forecast(w, slow));

  EXPECT_EQ(fast.successful_iterations, slow.successful_iterations);
  ASSERT_EQ(fast.median_forecast_before.size(),
            slow.median_forecast_before.size());
  for (std::size_t i = 0; i < fast.median_forecast_before.size(); ++i)
    EXPECT_NEAR(fast.median_forecast_before[i],
                slow.median_forecast_before[i], 1e-9);
  for (std::size_t i = 0; i < fast.median_forecast_after.size(); ++i)
    EXPECT_NEAR(fast.median_forecast_after[i], slow.median_forecast_after[i],
                1e-9);
  EXPECT_NEAR(fast.median_r_squared, slow.median_r_squared, 1e-9);
}

// Toggles obs collection for one test and restores a clean slate after.
struct ObsGuard {
  ObsGuard() {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
};

TEST(ParallelDeterminism, CompletePanelTakesGramPathEveryIteration) {
  const ElementWindows w = make_windows(default_spec());
  SpatialRegressionParams params;
  params.n_iterations = 30;
  const RobustSpatialRegression algo(params);

  ObsGuard guard;
  if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
  RobustSpatialRegression::Forecast fc;
  ASSERT_TRUE(algo.forecast(w, fc));
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("litmus.fit.gram").value(), params.n_iterations);
  EXPECT_EQ(reg.counter("litmus.fit.qr_fallback").value(), 0u);
  EXPECT_EQ(reg.counter("litmus.iterations").value(), params.n_iterations);
}

TEST(ParallelDeterminism, PerSubsetMissingnessForcesQrFallback) {
  ElementWindows w = make_windows(default_spec());
  // Punch holes into one control's before window: subsets that exclude it
  // have more complete rows than the panel, so the Gram solve would be
  // inexact there and must fall back to QR. Subsets containing it still
  // match the panel and keep the fast path.
  for (const std::size_t bin : {5u, 40u, 200u})
    w.control_before[3][bin] = ts::kMissing;

  SpatialRegressionParams params;
  params.n_iterations = 30;
  const RobustSpatialRegression algo(params);

  ObsGuard guard;
  if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
  RobustSpatialRegression::Forecast fc;
  ASSERT_TRUE(algo.forecast(w, fc));
  auto& reg = obs::Registry::global();
  const std::uint64_t fast = reg.counter("litmus.fit.gram").value();
  const std::uint64_t fallback = reg.counter("litmus.fit.qr_fallback").value();
  EXPECT_GT(fast, 0u);      // iterations sampling control 3
  EXPECT_GT(fallback, 0u);  // iterations skipping control 3
  EXPECT_EQ(fast + fallback, params.n_iterations);

  // The fallback is an implementation detail: results still match the
  // pure-QR run exactly at the bins both produce.
  SpatialRegressionParams qr_only = params;
  qr_only.use_gram_fast_path = false;
  RobustSpatialRegression::Forecast slow;
  ASSERT_TRUE(RobustSpatialRegression(qr_only).forecast(w, slow));
  for (std::size_t i = 0; i < fc.median_forecast_after.size(); ++i)
    EXPECT_NEAR(fc.median_forecast_after[i], slow.median_forecast_after[i],
                1e-9);
}

}  // namespace
}  // namespace litmus::core

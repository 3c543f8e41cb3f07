#include "litmus/spatial_regression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "test_windows.h"
#include "tsmath/random.h"
#include "tsmath/stats.h"

namespace litmus::core {
namespace {

using testing::WindowSpec;
using testing::make_windows;

TEST(SpatialRegression, DetectsStudyImprovement) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  const RobustSpatialRegression alg;
  const AnalysisOutcome o = alg.assess(make_windows(spec), spec.kpi);
  EXPECT_EQ(o.verdict, Verdict::kImprovement);
  EXPECT_LT(o.p_value, 0.01);
  EXPECT_FALSE(ts::is_missing(o.fit_r_squared));
}

TEST(SpatialRegression, DetectsStudyDegradation) {
  WindowSpec spec;
  spec.study_shift_sigma = -2.0;
  const RobustSpatialRegression alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kDegradation);
}

TEST(SpatialRegression, CancelsSharedExternalShift) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  spec.control_shift_sigma = 2.0;  // same external move everywhere
  const RobustSpatialRegression alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kNoImpact);
}

TEST(SpatialRegression, ControlOnlyShiftIsRelativeChange) {
  WindowSpec spec;
  spec.control_shift_sigma = 2.0;
  const RobustSpatialRegression alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kDegradation);
}

TEST(SpatialRegression, RobustToContaminatedMinority) {
  // Two of ten controls carry a huge unrelated shift in the improvement
  // direction; the paper's mechanism (sampling + median + regression) must
  // still find the study's real improvement, where mean-DiD fails (see
  // did_test.cpp's contamination cases). The true shift is 1.5 sigma: with
  // k=7 > N/2 most subsets contain a contaminated control, whose biased
  // forecast absorbs ~0.75 sigma of the study's shift, and the surviving
  // effect must still clear the 0.25-sigma materiality floor with margin
  // rather than ride its edge.
  WindowSpec spec;
  spec.n_controls = 10;
  spec.study_shift_sigma = 1.5;
  spec.contamination = {{0, 8.0}, {1, 8.0}};
  const RobustSpatialRegression alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kImprovement);
}

TEST(SpatialRegression, QuietNullIsNoImpact) {
  WindowSpec spec;
  const RobustSpatialRegression alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kNoImpact);
}

TEST(SpatialRegression, PolarityMapsDirection) {
  WindowSpec spec;
  spec.kpi = kpi::KpiId::kDroppedVoiceCallRatio;
  spec.study_shift_sigma = -2.0;  // quality loss -> ratio increases
  const RobustSpatialRegression alg;
  const AnalysisOutcome o = alg.assess(make_windows(spec), spec.kpi);
  EXPECT_EQ(o.verdict, Verdict::kDegradation);
  EXPECT_GT(o.effect_kpi_units, 0.0);
}

TEST(SpatialRegression, ForecastArtifactsAreConsistent) {
  WindowSpec spec;
  spec.study_shift_sigma = 1.5;
  const RobustSpatialRegression alg;
  RobustSpatialRegression::Forecast fc;
  ASSERT_TRUE(alg.forecast(make_windows(spec), fc));
  // k > N/2 (paper requirement).
  EXPECT_GT(fc.effective_k, spec.n_controls / 2);
  EXPECT_LE(fc.effective_k, spec.n_controls);
  EXPECT_GT(fc.successful_iterations, 0u);
  EXPECT_GT(fc.median_r_squared, 0.3);  // strong spatial dependency
  // Forecast difference medians reflect the injected shift.
  const double shift = ts::median(fc.forecast_diff_after) -
                       ts::median(fc.forecast_diff_before);
  const double expected =
      1.5 * kpi::info(spec.kpi).typical_noise;
  EXPECT_NEAR(shift, expected, 0.4 * expected);
}

TEST(SpatialRegression, ForecastTracksSharedFactor) {
  WindowSpec spec;
  const RobustSpatialRegression alg;
  RobustSpatialRegression::Forecast fc;
  const ElementWindows w = make_windows(spec);
  ASSERT_TRUE(alg.forecast(w, fc));
  // The forecast should explain most of the study's variance: the residual
  // (forecast diff) must be materially tighter than the raw series.
  const double raw_sd = ts::stddev(w.study_before.values());
  const double resid_sd = ts::stddev(fc.forecast_diff_before.values());
  EXPECT_LT(resid_sd, 0.8 * raw_sd);
}

TEST(SpatialRegression, DegenerateWithoutControls) {
  WindowSpec spec;
  spec.n_controls = 0;
  const RobustSpatialRegression alg;
  EXPECT_TRUE(alg.assess(make_windows(spec), spec.kpi).degenerate);
}

TEST(SpatialRegression, DegenerateOnShortSeries) {
  WindowSpec spec;
  spec.before = 6;
  spec.after = 6;
  const RobustSpatialRegression alg;
  EXPECT_TRUE(alg.assess(make_windows(spec), spec.kpi).degenerate);
}

TEST(SpatialRegression, DeterministicAcrossRuns) {
  WindowSpec spec;
  spec.study_shift_sigma = 0.7;
  const RobustSpatialRegression alg;
  const ElementWindows w = make_windows(spec);
  const AnalysisOutcome a = alg.assess(w, spec.kpi);
  const AnalysisOutcome b = alg.assess(w, spec.kpi);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
  EXPECT_DOUBLE_EQ(a.effect_kpi_units, b.effect_kpi_units);
}

TEST(SpatialRegression, SmallControlGroupStillWorks) {
  WindowSpec spec;
  spec.n_controls = 3;
  spec.study_shift_sigma = 2.0;
  const RobustSpatialRegression alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kImprovement);
}

TEST(SpatialRegression, HandlesMissingBinsInControls) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  ElementWindows w = make_windows(spec);
  for (std::size_t i = 0; i < 40; ++i) w.control_before[0][i] = ts::kMissing;
  for (std::size_t i = 0; i < 40; ++i) w.control_after[1][i] = ts::kMissing;
  const RobustSpatialRegression alg;
  EXPECT_EQ(alg.assess(w, spec.kpi).verdict, Verdict::kImprovement);
}

TEST(SpatialRegression, EffectFloorGatesTinyShifts) {
  WindowSpec spec;
  spec.study_shift_sigma = 0.1;
  spec.before = 2000;
  spec.after = 2000;
  const RobustSpatialRegression alg;  // default floor 0.25 sigma
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kNoImpact);
}

TEST(SpatialRegression, MeanAggregationKnobChangesForecast) {
  WindowSpec spec;
  spec.n_controls = 10;
  spec.contamination = {{0, 10.0}};
  SpatialRegressionParams median_params;
  SpatialRegressionParams mean_params;
  mean_params.aggregation = ForecastAggregation::kMean;
  RobustSpatialRegression::Forecast med_fc, mean_fc;
  const ElementWindows w = make_windows(spec);
  ASSERT_TRUE(RobustSpatialRegression(median_params).forecast(w, med_fc));
  ASSERT_TRUE(RobustSpatialRegression(mean_params).forecast(w, mean_fc));
  // With contamination present the two aggregations must disagree somewhere.
  bool any_diff = false;
  for (std::size_t i = 0; i < med_fc.median_forecast_after.size(); ++i) {
    const double a = med_fc.median_forecast_after[i];
    const double b = mean_fc.median_forecast_after[i];
    if (!ts::is_missing(a) && !ts::is_missing(b) && a != b) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SpatialRegression, WilcoxonKnobStillDetects) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  SpatialRegressionParams params;
  params.test = ComparisonTest::kWilcoxon;
  const RobustSpatialRegression alg(params);
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kImprovement);
}

TEST(SpatialRegression, AdaptiveStopsEarlyOnClearShift) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  SpatialRegressionParams params;
  params.adaptive_sampling = true;
  const RobustSpatialRegression alg(params);
  const ElementWindows w = make_windows(spec);
  RobustSpatialRegression::Forecast fc;
  ASSERT_TRUE(alg.forecast(w, fc));
  EXPECT_EQ(fc.stop_reason, StopReason::kStableVerdict);
  EXPECT_GE(fc.iterations_attempted, kMinIterations);
  EXPECT_LT(fc.iterations_attempted, params.n_iterations);
  EXPECT_LE(fc.successful_iterations, fc.iterations_attempted);
  // The early stop must not change the conclusion.
  EXPECT_EQ(alg.assess(w, spec.kpi).verdict, Verdict::kImprovement);
}

TEST(SpatialRegression, AdaptiveOffSpendsFullBudget) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  const RobustSpatialRegression alg;  // adaptive_sampling defaults off
  RobustSpatialRegression::Forecast fc;
  ASSERT_TRUE(alg.forecast(make_windows(spec), fc));
  EXPECT_EQ(fc.iterations_attempted, SpatialRegressionParams{}.n_iterations);
  EXPECT_EQ(fc.stop_reason, StopReason::kBudgetExhausted);
}

// Satellite regression: the explanation reports iterations *attempted*,
// not the configured budget, and names the stop reason.
TEST(SpatialRegression, ExplanationReportsAttemptedIterations) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  const ElementWindows w = make_windows(spec);

  SpatialRegressionParams off;
  const AnalysisOutcome full = RobustSpatialRegression(off).assess(w, spec.kpi);
  EXPECT_FALSE(full.explanation.adaptive_sampling);
  EXPECT_EQ(full.explanation.iterations_requested, off.n_iterations);
  EXPECT_EQ(full.explanation.iterations_used, off.n_iterations);
  EXPECT_STREQ(full.explanation.stop_reason, "budget-exhausted");
  EXPECT_LE(full.explanation.successful_iterations,
            full.explanation.iterations_used);

  SpatialRegressionParams on = off;
  on.adaptive_sampling = true;
  const AnalysisOutcome early = RobustSpatialRegression(on).assess(w, spec.kpi);
  EXPECT_TRUE(early.explanation.adaptive_sampling);
  EXPECT_EQ(early.explanation.iterations_requested, on.n_iterations);
  EXPECT_LT(early.explanation.iterations_used,
            early.explanation.iterations_requested);
  EXPECT_STREQ(early.explanation.stop_reason, "stable-verdict");
  EXPECT_LE(early.explanation.successful_iterations,
            early.explanation.iterations_used);
  EXPECT_EQ(early.verdict, full.verdict);
}

TEST(SpatialRegression, AdaptiveDegenerateReportsNoSampling) {
  WindowSpec spec;
  spec.n_controls = 0;
  SpatialRegressionParams params;
  params.adaptive_sampling = true;
  const AnalysisOutcome o =
      RobustSpatialRegression(params).assess(make_windows(spec), spec.kpi);
  EXPECT_TRUE(o.degenerate);
  EXPECT_EQ(o.explanation.iterations_used, 0u);
  EXPECT_STREQ(o.explanation.stop_reason, "");
}

TEST(SpatialRegression, AdaptiveDeterministicAcrossRuns) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  SpatialRegressionParams params;
  params.adaptive_sampling = true;
  const RobustSpatialRegression alg(params);
  const ElementWindows w = make_windows(spec);
  RobustSpatialRegression::Forecast a, b;
  ASSERT_TRUE(alg.forecast(w, a));
  ASSERT_TRUE(alg.forecast(w, b));
  EXPECT_EQ(a.iterations_attempted, b.iterations_attempted);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  for (std::size_t i = 0; i < a.median_forecast_after.size(); ++i)
    EXPECT_DOUBLE_EQ(a.median_forecast_after[i], b.median_forecast_after[i]);
}

// FNV-1a over the bit patterns of everything the verdict reads: both
// median forecasts, both forecast differences, p, z and effect, plus the
// iteration counts. The first eight digests were recorded from the
// per-bin-vector forecast store and the scalar column-by-column
// prediction loop, the last three from the per-bin slices that
// nth_element and an incremental sort+merge aggregated; the
// [iteration][bin] store, the predict kernel and the sorting network
// must reproduce every bit of them, on every SIMD tier. The last three
// pass 128 rows (a 256-row network), leave the last 8-bin group ragged
// (75 bins), and fail the fits that sample an infinite control cell, so
// fewer rows than the budget are filled.
std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const ts::TimeSeries& s) {
  for (std::size_t i = 0; i < s.size(); ++i) h = fnv1a(h, s[i]);
  return h;
}

struct DigestCase {
  const char* name;
  std::size_t controls, before, after;
  double shift_sigma;
  std::uint64_t seed;
  bool missing_runs;  ///< NaN runs in some controls' windows
  SpatialRegressionParams params;
  std::uint64_t expect;
  /// +∞ in control 5's before window at bin 17, as in
  /// InfiniteControlCellFailsOnlyTheFitsThatSampleIt.
  bool infinite_cell = false;
};

SpatialRegressionParams digest_params(std::size_t iterations, bool adaptive,
                                      ForecastAggregation agg) {
  SpatialRegressionParams p;
  p.n_iterations = iterations;
  p.adaptive_sampling = adaptive;
  p.aggregation = agg;
  return p;
}

std::uint64_t forecast_digest(const DigestCase& c) {
  WindowSpec spec;
  spec.n_controls = c.controls;
  spec.before = c.before;
  spec.after = c.after;
  spec.study_shift_sigma = c.shift_sigma;
  spec.seed = c.seed;
  ElementWindows w = make_windows(spec);
  if (c.missing_runs) {
    // Every fifth control loses a 4-bin run of its after window, and one
    // loses a before-window run, so some subsets leave the Gram panel and
    // fall back to QR.
    for (std::size_t k = 0; k < c.controls; k += 5)
      for (std::size_t i = 0; i < 4; ++i)
        w.control_after[k][(k + i) % c.after] = ts::kMissing;
    for (std::size_t i = 0; i < 3; ++i)
      w.control_before[1][c.before / 2 + i] = ts::kMissing;
  }
  if (c.infinite_cell)
    w.control_before[5][17] = std::numeric_limits<double>::infinity();
  const RobustSpatialRegression alg(c.params);
  RobustSpatialRegression::Forecast fc;
  EXPECT_TRUE(alg.forecast(w, fc, effect_floor(spec.kpi))) << c.name;
  const AnalysisOutcome o = alg.assess(w, spec.kpi);
  EXPECT_FALSE(o.degenerate) << c.name;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, fc.median_forecast_before);
  h = fnv1a(h, fc.median_forecast_after);
  h = fnv1a(h, fc.forecast_diff_before);
  h = fnv1a(h, fc.forecast_diff_after);
  h = fnv1a(h, o.p_value);
  h = fnv1a(h, o.statistic);
  h = fnv1a(h, o.effect_kpi_units);
  h = fnv1a(h, static_cast<double>(fc.successful_iterations));
  h = fnv1a(h, static_cast<double>(fc.iterations_attempted));
  return h;
}

TEST(SpatialRegression, ForecastBitsMatchParentDigest) {
  using Agg = ForecastAggregation;
  const DigestCase cases[] = {
      {"corpus-median", 39, 48, 24, 0.0, 11, true,
       digest_params(25, false, Agg::kMedian), 0x05629c4a69d29f81},
      {"corpus-mean", 39, 48, 24, 0.0, 11, true,
       digest_params(25, false, Agg::kMean), 0x534e8ac749278005},
      {"paper-median", 60, 336, 336, 1.0, 12, false,
       digest_params(25, false, Agg::kMedian), 0x97d55057e020e005},
      {"paper-mean", 60, 336, 336, -0.5, 13, false,
       digest_params(25, false, Agg::kMean), 0x5f4e7bf518074377},
      {"corpus-adaptive-shift", 39, 48, 24, 2.0, 14, true,
       digest_params(100, true, Agg::kMedian), 0x3a77023a0dc6a648},
      {"corpus-adaptive-null", 39, 48, 24, 0.3, 15, true,
       digest_params(100, true, Agg::kMedian), 0x6a4db85b6410d5c8},
      {"corpus-adaptive-mean", 39, 48, 24, 1.0, 16, true,
       digest_params(100, true, Agg::kMean), 0x45e4264c8227f292},
      {"paper-adaptive", 60, 336, 336, 0.6, 17, false,
       digest_params(100, true, Agg::kMedian), 0x23a63ec697e3122b},
      {"corpus-130-rows", 39, 48, 24, 1.0, 18, true,
       digest_params(130, false, Agg::kMedian), 0x89f5e46bddc72fef},
      {"ragged-group-adaptive", 39, 50, 25, 0.4, 19, true,
       digest_params(100, true, Agg::kMedian), 0x1c7484d8aefd3811},
      {"infinite-control", 12, 336, 336, 0.0, 7, false,
       digest_params(25, false, Agg::kMedian), 0xdb2c15c347c0f95c, true},
  };
  for (const DigestCase& c : cases) {
    const std::uint64_t got = forecast_digest(c);
    EXPECT_EQ(got, c.expect) << c.name << ": digest 0x" << std::hex << got;
  }
}

// An infinite cell in one control's before window must fail every fit
// whose sample includes that control (a non-finite coefficient is not a
// fit), and only those: the successful-iteration count is the budget
// minus the iterations that draw it.
TEST(SpatialRegression, InfiniteControlCellFailsOnlyTheFitsThatSampleIt) {
  WindowSpec spec;
  spec.n_controls = 12;
  spec.seed = 7;
  ElementWindows w = make_windows(spec);
  const std::size_t bad = 5;
  w.control_before[bad][17] = std::numeric_limits<double>::infinity();
  const SpatialRegressionParams params;
  RobustSpatialRegression::Forecast fc;
  ASSERT_TRUE(RobustSpatialRegression(params).forecast(w, fc));

  const ts::Rng base(params.seed);
  std::vector<std::size_t> pool, cols;
  std::size_t sampled_bad = 0;
  for (std::size_t it = 0; it < params.n_iterations; ++it) {
    ts::Rng rng = base.fork(it);
    ts::sample_without_replacement(rng, spec.n_controls, fc.effective_k,
                                   pool, cols);
    for (const std::size_t c : cols) sampled_bad += c == bad ? 1 : 0;
  }
  ASSERT_GT(sampled_bad, 0u);
  EXPECT_EQ(fc.successful_iterations, params.n_iterations - sampled_bad);
  for (std::size_t i = 0; i < fc.median_forecast_after.size(); ++i)
    EXPECT_TRUE(std::isfinite(fc.median_forecast_after[i])) << i;
}

// The forecast store is sized bins × n_iterations up front, so a budget
// whose size overflows must fail cleanly, not index past the buffer.
TEST(SpatialRegression, OversizedBudgetThrowsInsteadOfOverflowing) {
  WindowSpec spec;
  spec.before = 48;
  spec.after = 24;
  SpatialRegressionParams params;
  params.n_iterations = std::numeric_limits<std::size_t>::max() / 8;
  RobustSpatialRegression::Forecast fc;
  EXPECT_THROW(RobustSpatialRegression(params).forecast(make_windows(spec), fc),
               std::length_error);
}

// Zero-flip property: enabling adaptive sampling never changes the verdict
// across seeds, directions, and the null.
class AdaptiveFlipProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(AdaptiveFlipProperty, VerdictMatchesFullBudget) {
  const auto [seed, sigma] = GetParam();
  WindowSpec spec;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.study_shift_sigma = sigma;
  const ElementWindows w = make_windows(spec);
  SpatialRegressionParams on;
  on.adaptive_sampling = true;
  const AnalysisOutcome full = RobustSpatialRegression().assess(w, spec.kpi);
  const AnalysisOutcome adaptive =
      RobustSpatialRegression(on).assess(w, spec.kpi);
  EXPECT_EQ(adaptive.verdict, full.verdict)
      << "seed=" << seed << " sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveFlipProperty,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7),
                       ::testing::Values(-2.0, -1.0, 0.0, 1.0, 2.0)));

// Property sweep: detection holds across seeds and both directions.
class DetectionProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DetectionProperty, FindsInjectedShift) {
  const auto [seed, sigma] = GetParam();
  WindowSpec spec;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.study_shift_sigma = sigma;
  const RobustSpatialRegression alg;
  const AnalysisOutcome o = alg.assess(make_windows(spec), spec.kpi);
  EXPECT_EQ(o.verdict,
            sigma > 0 ? Verdict::kImprovement : Verdict::kDegradation)
      << "seed=" << seed << " sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DetectionProperty,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7),
                       ::testing::Values(-2.0, -1.0, 1.0, 2.0)));

}  // namespace
}  // namespace litmus::core

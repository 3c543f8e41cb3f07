// Degenerate inputs get a defined outcome from both analyzers that decide
// through the verdict rule, with adaptive sampling off and on: either
// degenerate, with a note and (whenever sampling ran) a stop reason, or a
// verdict whose p-value is a number. z may be infinite: the rank test
// reports that for fully separated samples.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "litmus/spatial_regression.h"
#include "litmus/study_only.h"
#include "test_windows.h"

namespace litmus::core {
namespace {

using testing::WindowSpec;
using testing::make_windows;

constexpr kpi::KpiId kKpi = kpi::KpiId::kVoiceRetainability;

void expect_defined(const AnalysisOutcome& o) {
  if (o.degenerate) {
    EXPECT_FALSE(o.explanation.note.empty());
    EXPECT_EQ(o.verdict, Verdict::kNoImpact);
    if (o.explanation.iterations_used > 0) {
      EXPECT_STRNE(o.explanation.stop_reason, "");
    }
    return;
  }
  EXPECT_FALSE(std::isnan(o.p_value));
  EXPECT_FALSE(std::isnan(o.statistic));
}

struct Outcomes {
  AnalysisOutcome litmus_off, litmus_on, study_only;
};

// Assesses `w` through Litmus with adaptive sampling off and on, and
// through the study-only baseline; every outcome must be defined.
Outcomes assess_everywhere(const ElementWindows& w) {
  SpatialRegressionParams on;
  on.adaptive_sampling = true;
  Outcomes o{RobustSpatialRegression().assess(w, kKpi),
             RobustSpatialRegression(on).assess(w, kKpi),
             StudyOnlyAnalyzer().assess(w, kKpi)};
  {
    SCOPED_TRACE("litmus, adaptive off");
    expect_defined(o.litmus_off);
  }
  {
    SCOPED_TRACE("litmus, adaptive on");
    expect_defined(o.litmus_on);
  }
  {
    SCOPED_TRACE("study only");
    expect_defined(o.study_only);
  }
  return o;
}

void expect_fit_failures(const AnalysisOutcome& o) {
  EXPECT_TRUE(o.degenerate);
  EXPECT_EQ(o.explanation.successful_iterations, 0u);
  EXPECT_STREQ(o.explanation.stop_reason, "fit-failures");
}

WindowSpec small_spec() {
  WindowSpec spec;
  spec.n_controls = 12;
  spec.before = 48;
  spec.after = 24;
  spec.study_shift_sigma = 1.0;
  spec.seed = 5;
  return spec;
}

// The forecast differences still vary, so the test runs; the effect is a
// rounding-sized 1e-13, and only the floor keeps it from reading as an
// impact (the test itself may call it significant).
TEST(Degenerate, ConstantStudySeries) {
  ElementWindows w = make_windows(small_spec());
  const double level = kpi::info(kKpi).typical_value;
  for (std::size_t i = 0; i < w.study_before.size(); ++i)
    w.study_before[i] = level;
  for (std::size_t i = 0; i < w.study_after.size(); ++i)
    w.study_after[i] = level;
  const Outcomes o = assess_everywhere(w);
  for (const AnalysisOutcome* x : {&o.litmus_off, &o.litmus_on}) {
    EXPECT_FALSE(x->degenerate);
    EXPECT_FALSE(x->explanation.material);
    EXPECT_EQ(x->verdict, Verdict::kNoImpact);
  }
  EXPECT_FALSE(o.study_only.degenerate);
  EXPECT_EQ(o.study_only.p_value, 1.0);  // identical samples
}

TEST(Degenerate, AllMissingStudyAfterWindow) {
  ElementWindows w = make_windows(small_spec());
  for (std::size_t i = 0; i < w.study_after.size(); ++i)
    w.study_after[i] = ts::kMissing;
  const Outcomes o = assess_everywhere(w);
  for (const AnalysisOutcome* x : {&o.litmus_off, &o.litmus_on}) {
    EXPECT_TRUE(x->degenerate);
    EXPECT_EQ(x->explanation.iterations_used, 0u);  // stops before sampling
    EXPECT_STREQ(x->explanation.stop_reason, "");
  }
  EXPECT_TRUE(o.study_only.degenerate);
}

// Every forecast of the after window is missing, so Litmus has no after
// differences to test; the study-only baseline never looks at controls.
TEST(Degenerate, AllMissingControlAfterWindows) {
  ElementWindows w = make_windows(small_spec());
  for (ts::TimeSeries& c : w.control_after)
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = ts::kMissing;
  const Outcomes o = assess_everywhere(w);
  for (const AnalysisOutcome* x : {&o.litmus_off, &o.litmus_on}) {
    EXPECT_TRUE(x->degenerate);
    EXPECT_STREQ(x->explanation.stop_reason, "budget-exhausted");
  }
  EXPECT_FALSE(o.study_only.degenerate);
}

TEST(Degenerate, DuplicatedControls) {
  ElementWindows w = make_windows(small_spec());
  for (std::size_t c = 1; c < w.control_before.size(); ++c) {
    w.control_before[c] = w.control_before[0];
    w.control_after[c] = w.control_after[0];
  }
  const Outcomes o = assess_everywhere(w);
  expect_fit_failures(o.litmus_off);
  expect_fit_failures(o.litmus_on);
}

TEST(Degenerate, ConstantControls) {
  ElementWindows w = make_windows(small_spec());
  const double level = kpi::info(kKpi).typical_value;
  for (std::vector<ts::TimeSeries>* side : {&w.control_before, &w.control_after})
    for (ts::TimeSeries& c : *side)
      for (std::size_t i = 0; i < c.size(); ++i) c[i] = level;
  const Outcomes o = assess_everywhere(w);
  expect_fit_failures(o.litmus_off);
  expect_fit_failures(o.litmus_on);
}

TEST(Degenerate, InfiniteCellInEveryControlBeforeWindow) {
  ElementWindows w = make_windows(small_spec());
  for (std::size_t c = 0; c < w.control_before.size(); ++c)
    w.control_before[c][c % w.control_before[c].size()] =
        std::numeric_limits<double>::infinity();
  const Outcomes o = assess_everywhere(w);
  expect_fit_failures(o.litmus_off);
  expect_fit_failures(o.litmus_on);
}

// k is capped by the before window's degrees of freedom (12 - 5 = 7
// regressors), far below the 21 a 40-control majority would sample.
TEST(Degenerate, TwelveBinBeforeWindowWithFortyControls) {
  WindowSpec spec = small_spec();
  spec.before = 12;
  spec.n_controls = 40;
  const Outcomes o = assess_everywhere(make_windows(spec));
  EXPECT_EQ(o.litmus_off.explanation.effective_k, 7u);
}

}  // namespace
}  // namespace litmus::core

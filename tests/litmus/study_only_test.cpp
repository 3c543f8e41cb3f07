#include "litmus/study_only.h"

#include <gtest/gtest.h>

#include "test_windows.h"

namespace litmus::core {
namespace {

using testing::WindowSpec;
using testing::make_windows;

TEST(StudyOnly, DetectsInjectedImprovement) {
  WindowSpec spec;
  spec.study_shift_sigma = 2.0;
  spec.shared_weight = 0.0;  // no confound
  const StudyOnlyAnalyzer alg;
  const AnalysisOutcome o = alg.assess(make_windows(spec), spec.kpi);
  EXPECT_EQ(o.verdict, Verdict::kImprovement);
  EXPECT_LT(o.p_value, 0.01);
  EXPECT_GT(o.effect_kpi_units, 0.0);
}

TEST(StudyOnly, DetectsInjectedDegradation) {
  WindowSpec spec;
  spec.study_shift_sigma = -2.0;
  spec.shared_weight = 0.0;
  const StudyOnlyAnalyzer alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kDegradation);
}

TEST(StudyOnly, PolarityFlipsVerdictForDroppedCalls) {
  WindowSpec spec;
  spec.kpi = kpi::KpiId::kDroppedVoiceCallRatio;
  spec.study_shift_sigma = 2.0;  // quality improvement -> ratio decreases
  spec.shared_weight = 0.0;
  const StudyOnlyAnalyzer alg;
  const AnalysisOutcome o = alg.assess(make_windows(spec), spec.kpi);
  EXPECT_EQ(o.verdict, Verdict::kImprovement);
  EXPECT_LT(o.effect_kpi_units, 0.0);  // the raw KPI went down
}

TEST(StudyOnly, QuietSeriesIsNoImpact) {
  WindowSpec spec;
  spec.shared_weight = 0.0;
  const StudyOnlyAnalyzer alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kNoImpact);
}

TEST(StudyOnly, FooledByCommonShift) {
  // The defining weakness: an external shift hitting everyone reads as an
  // impact of the change.
  WindowSpec spec;
  spec.study_shift_sigma = 0.0;
  spec.control_shift_sigma = 0.0;
  spec.shared_weight = 0.0;
  WindowSpec confounded = spec;
  confounded.study_shift_sigma = 2.0;  // stands in for the external factor
  const StudyOnlyAnalyzer alg;
  EXPECT_EQ(alg.assess(make_windows(confounded), spec.kpi).verdict,
            Verdict::kImprovement);  // false positive by construction
}

TEST(StudyOnly, EffectFloorSuppressesTinyShifts) {
  WindowSpec spec;
  spec.study_shift_sigma = 0.1;  // statistically findable, too small to act on
  spec.shared_weight = 0.0;
  spec.before = 3000;
  spec.after = 3000;
  const StudyOnlyAnalyzer alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kNoImpact);
}

TEST(StudyOnly, DegenerateOnTooFewPoints) {
  ElementWindows w;
  w.study_before = ts::TimeSeries(0, {0.9, 0.9});
  w.study_after = ts::TimeSeries(2, {0.9, 0.9});
  const StudyOnlyAnalyzer alg;
  const AnalysisOutcome o =
      alg.assess(w, kpi::KpiId::kVoiceRetainability);
  EXPECT_TRUE(o.degenerate);
  EXPECT_EQ(o.verdict, Verdict::kNoImpact);
}

TEST(StudyOnly, IgnoresControlsEntirely) {
  WindowSpec spec;
  spec.control_shift_sigma = 3.0;  // massive control move
  spec.shared_weight = 0.0;
  const StudyOnlyAnalyzer alg;
  EXPECT_EQ(alg.assess(make_windows(spec), spec.kpi).verdict,
            Verdict::kNoImpact);
}

}  // namespace
}  // namespace litmus::core

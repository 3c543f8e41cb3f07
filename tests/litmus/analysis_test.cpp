#include "litmus/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace litmus::core {
namespace {

TEST(VerdictFrom, NoChangeIsAlwaysNoImpact) {
  EXPECT_EQ(verdict_from(RelativeChange::kNoChange,
                         kpi::Polarity::kHigherIsBetter),
            Verdict::kNoImpact);
  EXPECT_EQ(verdict_from(RelativeChange::kNoChange,
                         kpi::Polarity::kLowerIsBetter),
            Verdict::kNoImpact);
}

TEST(VerdictFrom, HigherIsBetterMapping) {
  EXPECT_EQ(verdict_from(RelativeChange::kIncrease,
                         kpi::Polarity::kHigherIsBetter),
            Verdict::kImprovement);
  EXPECT_EQ(verdict_from(RelativeChange::kDecrease,
                         kpi::Polarity::kHigherIsBetter),
            Verdict::kDegradation);
}

TEST(VerdictFrom, LowerIsBetterMapping) {
  // A dropped-call-ratio increase is a degradation.
  EXPECT_EQ(verdict_from(RelativeChange::kIncrease,
                         kpi::Polarity::kLowerIsBetter),
            Verdict::kDegradation);
  EXPECT_EQ(verdict_from(RelativeChange::kDecrease,
                         kpi::Polarity::kLowerIsBetter),
            Verdict::kImprovement);
}

TEST(Analysis, EnumNames) {
  EXPECT_STREQ(to_string(RelativeChange::kNoChange), "no_change");
  EXPECT_STREQ(to_string(RelativeChange::kIncrease), "increase");
  EXPECT_STREQ(to_string(Verdict::kImprovement), "improvement");
  EXPECT_STREQ(to_string(Verdict::kDegradation), "degradation");
  EXPECT_STREQ(to_string(Verdict::kNoImpact), "no_impact");
}

TEST(Analysis, DefaultOutcomeIsDegenerateFree) {
  const AnalysisOutcome o;
  EXPECT_EQ(o.verdict, Verdict::kNoImpact);
  EXPECT_FALSE(o.degenerate);
  EXPECT_TRUE(ts::is_missing(o.p_value));
}

// The verdict rule: 4 observed bins per side, then the test at kAlpha,
// then the floor on |median(after) - median(before)|.
TEST(Decide, NeedsFourObservedBinsOnEachSide) {
  const std::vector<double> four = {1.0, 2.0, ts::kMissing, 3.0, 4.0};
  const std::vector<double> three = {5.0, ts::kMissing, 6.0, 7.0};
  EXPECT_FALSE(decide(three, four, 0.0).usable);
  EXPECT_FALSE(decide(four, three, 0.0).usable);
  const Decision d = decide(four, four, 0.0);
  EXPECT_TRUE(d.usable);
  EXPECT_EQ(d.n_after, 4u);
  EXPECT_EQ(d.n_before, 4u);
}

TEST(Decide, SignificantShiftCountsOnlyAboveTheFloor) {
  std::vector<double> before, after;
  for (int i = 0; i < 12; ++i) {
    before.push_back(0.90 + 0.001 * i);
    after.push_back(0.95 + 0.001 * i);
  }
  const Decision up = decide(after, before, 0.01);
  EXPECT_LT(up.p_value, kAlpha);
  EXPECT_NEAR(up.effect, 0.05, 1e-12);
  EXPECT_TRUE(up.material);
  EXPECT_EQ(up.relative, RelativeChange::kIncrease);
  EXPECT_EQ(decide(before, after, 0.01).relative, RelativeChange::kDecrease);

  const Decision immaterial = decide(after, before, 0.06);
  EXPECT_LT(immaterial.p_value, kAlpha);
  EXPECT_FALSE(immaterial.material);
  EXPECT_EQ(immaterial.floor, 0.06);
  EXPECT_EQ(immaterial.relative, RelativeChange::kNoChange);
}

TEST(Decide, RecordDecisionAppliesPolarity) {
  std::vector<double> before, after;
  for (int i = 0; i < 12; ++i) {
    before.push_back(0.01 + 0.001 * i);
    after.push_back(0.05 + 0.001 * i);
  }
  const kpi::KpiId dropped = kpi::KpiId::kDroppedVoiceCallRatio;
  const Decision d = decide(after, before, effect_floor(dropped));
  AnalysisOutcome out;
  record_decision(d, dropped, out);
  EXPECT_EQ(out.relative, RelativeChange::kIncrease);
  EXPECT_EQ(out.verdict, Verdict::kDegradation);  // more dropped calls
  EXPECT_EQ(out.statistic, d.statistic);
  EXPECT_EQ(out.explanation.effect_floor_kpi_units, effect_floor(dropped));
  EXPECT_TRUE(out.explanation.material);
}

// Each test registers its rank_test.* handles the first time it runs, so a
// run that never runs WMW carries no zero-valued rank_test.wmw.* rows.
TEST(Decide, RecordsOnlyTheTestsItRan) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  const std::vector<double> a = {1, 2, 3, 4, 5}, b = {6, 7, 8, 9, 10};
  decide(a, b, 0.0);
  decide(a, b, 0.0);
  decide(a, {}, 0.0);  // unusable: no test, nothing recorded
  const auto names = [] {
    std::vector<std::string> out;
    for (const auto& [name, value] : obs::Registry::global().snapshot().counters)
      out.push_back(name + "=" + std::to_string(value));
    return out;
  };
  std::vector<std::string> counters = names();
  EXPECT_NE(std::find(counters.begin(), counters.end(), "rank_test.fp.calls=2"),
            counters.end());
  for (const std::string& c : counters)
    EXPECT_EQ(c.find("rank_test.wmw."), std::string::npos) << c;
  decide(a, b, 0.0, ComparisonTest::kWilcoxon);
  counters = names();
  EXPECT_NE(
      std::find(counters.begin(), counters.end(), "rank_test.wmw.calls=1"),
      counters.end());
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace litmus::core

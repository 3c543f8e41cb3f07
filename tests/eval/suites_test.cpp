// Tests for the Table 2/3/4 evaluation suites. Full-scale sweeps run in the
// benches; here we verify structure, determinism, and that the headline
// orderings hold on reduced-but-meaningful workloads.
#include <gtest/gtest.h>

#include "eval/known_assessments.h"
#include "eval/synthetic.h"
#include "parallel/pool.h"

namespace litmus::eval {
namespace {

TEST(KnownAssessments, RowsCover313Cases) {
  std::size_t cases = 0;
  for (const auto& row : table2_rows()) cases += row.n_study * row.kpis.size();
  EXPECT_EQ(cases, 313u);  // the paper's Table 2 total
}

TEST(KnownAssessments, NineteenRowsAsInTable2) {
  EXPECT_EQ(table2_rows().size(), 19u);
}

TEST(KnownAssessments, RowRunIsDeterministic) {
  const auto rows = table2_rows();
  const RowResult a = run_row(rows[1], 42);
  const RowResult b = run_row(rows[1], 42);
  EXPECT_EQ(a.litmus.tp, b.litmus.tp);
  EXPECT_EQ(a.study_only.fp, b.study_only.fp);
  EXPECT_EQ(a.did.fn, b.did.fn);
}

TEST(KnownAssessments, CleanRowIsAllTruePositives) {
  // Row 2 ("Radio link failure timer") has no confound and a clear effect:
  // every algorithm should nail all 3 cases.
  const auto rows = table2_rows();
  const RowResult r = run_row(rows[1], 7);
  EXPECT_EQ(r.study_only.tp, 3u);
  EXPECT_EQ(r.did.tp, 3u);
  EXPECT_EQ(r.litmus.tp, 3u);
}

TEST(KnownAssessments, ConfoundedNullRowFoolsStudyOnlyNotLitmus) {
  // Row 4 ("Radio link" at 25 NodeBs, other change): truly no impact.
  const auto rows = table2_rows();
  const RowResult r = run_row(rows[3], 7);
  EXPECT_EQ(r.litmus.total(), 25u);
  EXPECT_GT(r.study_only.fp, 15u);          // fooled nearly everywhere
  EXPECT_GT(r.litmus.tn, r.study_only.tn);  // Litmus mostly clean
}

TEST(KnownAssessments, FullRunSummaryOrdering) {
  const KnownAssessmentResults r = run_known_assessments(2011);
  EXPECT_EQ(r.cases, 313u);
  // The paper's headline: Litmus > DiD > study-only in accuracy; Litmus
  // recall strictly above DiD's.
  EXPECT_GT(r.total.litmus.accuracy(), r.total.did.accuracy());
  EXPECT_GT(r.total.did.accuracy(), r.total.study_only.accuracy());
  EXPECT_GT(r.total.litmus.recall(), r.total.did.recall());
  EXPECT_GE(r.total.litmus.recall(), 0.95);
  EXPECT_FALSE(format_table2(r).empty());
}

TEST(KnownAssessments, AdaptiveSamplingZeroVerdictFlipsOnTable2) {
  // The ISSUE-10 accuracy gate: enabling adaptive early stopping must not
  // flip a single verdict across all 313 Table-2 cases. Case-for-case, not
  // just aggregate counts — episodes are deterministic in the seed, so the
  // two verdict vectors align.
  core::SpatialRegressionParams off;
  core::SpatialRegressionParams on;
  on.adaptive_sampling = true;
  std::uint64_t row_counter = 0;
  std::size_t cases = 0;
  for (const KnownChangeRow& row : table2_rows()) {
    const std::uint64_t seed = 2011 + (++row_counter) * 104729;
    const std::vector<core::Verdict> full = row_litmus_verdicts(row, seed, off);
    const std::vector<core::Verdict> adaptive =
        row_litmus_verdicts(row, seed, on);
    ASSERT_EQ(full.size(), adaptive.size()) << row.change_type;
    for (std::size_t i = 0; i < full.size(); ++i)
      EXPECT_EQ(full[i], adaptive[i])
          << row.change_type << " case " << i << ": "
          << core::to_string(full[i]) << " -> " << core::to_string(adaptive[i]);
    cases += full.size();
  }
  EXPECT_EQ(cases, 313u);
}

TEST(Synthetic, TrialDeterministicForSameSeed) {
  const SyntheticConfig cfg;
  const TrialOutcome a = run_trial(cfg, InjectionPattern::kStudyOnly,
                                   net::Region::kWest,
                                   kpi::KpiId::kVoiceRetainability, 99);
  const TrialOutcome b = run_trial(cfg, InjectionPattern::kStudyOnly,
                                   net::Region::kWest,
                                   kpi::KpiId::kVoiceRetainability, 99);
  EXPECT_EQ(a.truth, b.truth);
  EXPECT_EQ(a.litmus, b.litmus);
  EXPECT_EQ(a.did, b.did);
}

TEST(Synthetic, PatternsImplyTruthSides) {
  const SyntheticConfig cfg;
  std::uint64_t seed = 1;
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(run_trial(cfg, InjectionPattern::kNone, net::Region::kWest,
                        kpi::KpiId::kVoiceRetainability, seed++)
                  .truth,
              core::Verdict::kNoImpact);
    EXPECT_EQ(run_trial(cfg, InjectionPattern::kBothSameMagnitude,
                        net::Region::kWest,
                        kpi::KpiId::kVoiceRetainability, seed++)
                  .truth,
              core::Verdict::kNoImpact);
    EXPECT_NE(run_trial(cfg, InjectionPattern::kStudyOnly, net::Region::kWest,
                        kpi::KpiId::kVoiceRetainability, seed++)
                  .truth,
              core::Verdict::kNoImpact);
    EXPECT_NE(run_trial(cfg, InjectionPattern::kControlOnly,
                        net::Region::kWest,
                        kpi::KpiId::kVoiceRetainability, seed++)
                  .truth,
              core::Verdict::kNoImpact);
    EXPECT_NE(run_trial(cfg, InjectionPattern::kBothDifferentMagnitude,
                        net::Region::kWest,
                        kpi::KpiId::kVoiceRetainability, seed++)
                  .truth,
              core::Verdict::kNoImpact);
  }
}

TEST(Synthetic, SmallSweepShapesMatchPaper) {
  SyntheticConfig cfg;
  cfg.trials_per_cell = 4;  // 5 x 4 x 4 x 4 = 320 cases; enough for ordering
  const SyntheticResults r = run_synthetic_sweep(cfg);
  EXPECT_EQ(r.trials, 320u);
  EXPECT_EQ(r.litmus.total(), 320u);
  // Headline orderings (paper Table 4).
  EXPECT_GT(r.litmus.accuracy(), r.did.accuracy());
  EXPECT_GT(r.did.accuracy(), r.study_only.accuracy());
  EXPECT_GT(r.litmus.recall(), r.did.recall() - 1e-12);
  EXPECT_LT(r.study_only.true_negative_rate(), 0.35);  // the TNR collapse
  EXPECT_FALSE(format_table3(r).empty());
  EXPECT_FALSE(format_table4(r).empty());
}

TEST(Synthetic, SweepIsDeterministic) {
  SyntheticConfig cfg;
  cfg.trials_per_cell = 2;
  const SyntheticResults a = run_synthetic_sweep(cfg);
  const SyntheticResults b = run_synthetic_sweep(cfg);
  EXPECT_EQ(a.litmus.tp, b.litmus.tp);
  EXPECT_EQ(a.study_only.fp, b.study_only.fp);
  EXPECT_EQ(a.did.fn, b.did.fn);
}

TEST(Synthetic, PatternBreakdownSumsToTotals) {
  SyntheticConfig cfg;
  cfg.trials_per_cell = 2;
  const SyntheticResults r = run_synthetic_sweep(cfg);
  std::size_t sum = 0;
  for (const auto& c : r.litmus_by_pattern) sum += c.total();
  EXPECT_EQ(sum, r.litmus.total());
}

TEST(Synthetic, ResultsIndependentOfThreadCount) {
  SyntheticConfig cfg;
  cfg.trials_per_cell = 2;
  par::set_threads(1);
  const SyntheticResults one = run_synthetic_sweep(cfg);
  par::set_threads(4);
  const SyntheticResults four = run_synthetic_sweep(cfg);
  par::set_threads(0);
  EXPECT_EQ(one.litmus.tp, four.litmus.tp);
  EXPECT_EQ(one.litmus.fn, four.litmus.fn);
  EXPECT_EQ(one.did.fp, four.did.fp);
  EXPECT_EQ(one.study_only.tn, four.study_only.tn);
}

TEST(Synthetic, FormatsCarryHeadersAndCounts) {
  SyntheticConfig cfg;
  cfg.trials_per_cell = 1;
  const SyntheticResults r = run_synthetic_sweep(cfg);
  const std::string t4 = format_table4(r);
  EXPECT_NE(t4.find("80 cases"), std::string::npos);
  EXPECT_NE(t4.find("True negative rate"), std::string::npos);
  EXPECT_NE(t4.find("Litmus Robust"), std::string::npos);
  const std::string t3 = format_table3(r);
  EXPECT_NE(t3.find("study+control different"), std::string::npos);
  EXPECT_NE(t3.find("no impact"), std::string::npos);
}

TEST(Synthetic, FourKpisFourRegions) {
  EXPECT_EQ(synthetic_kpis().size(), 4u);
  EXPECT_EQ(synthetic_regions().size(), 4u);
}

}  // namespace
}  // namespace litmus::eval

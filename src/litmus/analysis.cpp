#include "litmus/analysis.h"

#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "tsmath/rank_tests.h"
#include "tsmath/simd/kernels.h"
#include "tsmath/stats.h"

namespace litmus::core {
namespace {

// One test's metric handles, resolved once per process: the registry hands
// out stable references, so the per-call path neither builds
// "rank_test.<test>.<metric>" strings nor walks the registry map (both
// showed up as hot-path heap churn — a batch sweep decides tens of
// thousands of times).
struct TestMetrics {
  explicit TestMetrics(const std::string& prefix)  // "rank_test.<test>."
      : calls(obs::Registry::global().counter(prefix + "calls")),
        z(obs::Registry::global().histogram(prefix + "z")),
        p_value(obs::Registry::global().histogram(prefix + "p_value")),
        significant(obs::Registry::global().counter(prefix + "significant")) {}

  obs::Counter& calls;
  obs::Histogram& z;
  obs::Histogram& p_value;
  obs::Counter& significant;
};

// Each test registers its handles on its own first call, so a run that
// never runs WMW carries no rank_test.wmw.* rows.
const TestMetrics& metrics_for(ComparisonTest test) {
  if (test == ComparisonTest::kRobustRankOrder) {
    static const TestMetrics fp("rank_test.fp.");
    return fp;
  }
  static const TestMetrics wmw("rank_test.wmw.");
  return wmw;
}

void observe_test(ComparisonTest test, const ts::TestResult& r) {
  if (!obs::enabled()) return;
  const TestMetrics& m = metrics_for(test);
  m.calls.add();
  if (!ts::is_missing(r.statistic) && std::isfinite(r.statistic))
    m.z.record(r.statistic);
  if (!ts::is_missing(r.p_value)) m.p_value.record(r.p_value);
  if (r.shift != ts::Shift::kNone) m.significant.add();
}

std::size_t observed(std::span<const double> xs) noexcept {
  return xs.size() - ts::simd::count_missing(xs);
}

}  // namespace

double effect_floor(kpi::KpiId kpi) noexcept {
  return kMinEffectSigma * kpi::info(kpi).typical_noise;
}

const char* to_string(RelativeChange c) noexcept {
  switch (c) {
    case RelativeChange::kNoChange: return "no_change";
    case RelativeChange::kIncrease: return "increase";
    case RelativeChange::kDecrease: return "decrease";
  }
  return "?";
}

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kNoImpact: return "no_impact";
    case Verdict::kImprovement: return "improvement";
    case Verdict::kDegradation: return "degradation";
  }
  return "?";
}

Verdict verdict_from(RelativeChange change, kpi::Polarity polarity) noexcept {
  if (change == RelativeChange::kNoChange) return Verdict::kNoImpact;
  const bool increase = change == RelativeChange::kIncrease;
  const bool higher_better = polarity == kpi::Polarity::kHigherIsBetter;
  return increase == higher_better ? Verdict::kImprovement
                                   : Verdict::kDegradation;
}

Decision decide(std::span<const double> after, std::span<const double> before,
                double floor_kpi_units, ComparisonTest test) {
  Decision d;
  if (observed(after) < 4 || observed(before) < 4) return d;
  const ts::TestResult t =
      test == ComparisonTest::kRobustRankOrder
          ? ts::robust_rank_order(after, before, kAlpha)
          : ts::wilcoxon_mann_whitney(after, before, kAlpha);
  observe_test(test, t);
  d.usable = true;
  d.statistic = t.statistic;
  d.p_value = t.p_value;
  d.n_after = t.n_x;
  d.n_before = t.n_y;
  d.effect = ts::median(after) - ts::median(before);
  d.floor = floor_kpi_units;
  d.material = std::fabs(d.effect) >= floor_kpi_units;
  if (d.material && t.shift == ts::Shift::kIncrease)
    d.relative = RelativeChange::kIncrease;
  else if (d.material && t.shift == ts::Shift::kDecrease)
    d.relative = RelativeChange::kDecrease;
  return d;
}

void record_decision(const Decision& d, kpi::KpiId kpi, AnalysisOutcome& out) {
  out.relative = d.relative;
  out.verdict = verdict_from(d.relative, kpi::info(kpi).polarity);
  out.p_value = d.p_value;
  out.statistic = d.statistic;
  out.effect_kpi_units = d.effect;
  out.explanation.n_after = d.n_after;
  out.explanation.n_before = d.n_before;
  out.explanation.effect_floor_kpi_units = d.floor;
  out.explanation.material = d.material;
}

}  // namespace litmus::core

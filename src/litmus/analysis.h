// Common types for the three change-impact analyzers (paper Section 4.1):
// study-group-only, Difference in Differences, and Litmus robust spatial
// regression; and the verdict rule that Litmus (its final verdict and its
// adaptive checkpoints) and the study-only baseline decide through.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kpi/kpi.h"
#include "tsmath/timeseries.h"

namespace litmus::core {

/// Significance level of the verdict rule's rank test.
inline constexpr double kAlpha = 0.05;

/// Practical-significance floor, in multiples of the KPI's per-bin noise
/// scale: a statistically significant shift is only reported as an impact
/// when its magnitude clears it (operationally, "significant performance
/// impacts" — microscopic shifts do not gate a rollout).
inline constexpr double kMinEffectSigma = 0.25;

/// The floor in KPI units: kMinEffectSigma times the KPI's noise scale.
double effect_floor(kpi::KpiId kpi) noexcept;

/// Two-sample test the verdict rule runs.
enum class ComparisonTest : std::uint8_t {
  kRobustRankOrder,  ///< the paper's choice (Fligner-Policello)
  kWilcoxon,         ///< ablation: classical WMW
};

/// Direction of the detected relative change of the study element against
/// its control group (or against its own past, for study-only analysis).
enum class RelativeChange : std::uint8_t { kNoChange, kIncrease, kDecrease };

const char* to_string(RelativeChange c) noexcept;

/// Service-level conclusion after applying KPI polarity.
enum class Verdict : std::uint8_t { kNoImpact, kImprovement, kDegradation };

const char* to_string(Verdict v) noexcept;

/// Maps a relative KPI change to a service verdict: an increase in a
/// higher-is-better KPI is an improvement; an increase in a lower-is-better
/// KPI (dropped-call ratio) is a degradation.
Verdict verdict_from(RelativeChange change, kpi::Polarity polarity) noexcept;

/// The windows an analyzer sees for one study element. Control series are
/// positionally matched between before and after (control_before[i] and
/// control_after[i] belong to the same element).
struct ElementWindows {
  ts::TimeSeries study_before;
  ts::TimeSeries study_after;
  std::vector<ts::TimeSeries> control_before;
  std::vector<ts::TimeSeries> control_after;
};

/// Why a verdict came out the way it did: the inputs, intermediate
/// statistics and decision thresholds behind one AnalysisOutcome, so a
/// go / no-go review can audit a verdict instead of trusting it. Filled by
/// every analyzer; fields an analyzer has no notion of stay at their
/// defaults (e.g. sampling fields for the non-sampling baselines).
struct VerdictExplanation {
  const char* analyzer = "";     ///< the producing analyzer's name()
  const char* test = "";         ///< two-sample test applied, "" if none
  const char* aggregation = "";  ///< forecast aggregation (Litmus only)
  std::size_t n_controls = 0;    ///< control series offered to the analyzer
  /// Sampling diagnostics (Litmus): controls per iteration, the configured
  /// iteration budget, the iterations actually *attempted* (fewer than the
  /// budget when adaptive sampling stopped early; 0 when the input was
  /// degenerate before any sampling ran), and the attempted iterations
  /// whose OLS fit succeeded.
  std::size_t effective_k = 0;
  std::size_t iterations_requested = 0;
  std::size_t iterations_used = 0;
  std::size_t successful_iterations = 0;
  /// Adaptive early stopping (Litmus): whether it was enabled, and why the
  /// sampling loop ended — "stable-verdict", "budget-exhausted" or
  /// "fit-failures" ("" when no sampling ran).
  bool adaptive_sampling = false;
  const char* stop_reason = "";
  /// Two-sample sizes entering the comparison test (after / before).
  std::size_t n_after = 0;
  std::size_t n_before = 0;
  double alpha = ts::kMissing;   ///< significance level of the test
  /// Practical-significance floor in KPI units and whether the observed
  /// effect cleared it (a significant-but-immaterial shift reads NoImpact).
  double effect_floor_kpi_units = ts::kMissing;
  bool material = false;
  /// Human-readable reason when the analyzer abstained (degenerate).
  std::string note;
};

/// One analyzer's conclusion for one study element.
struct AnalysisOutcome {
  RelativeChange relative = RelativeChange::kNoChange;
  Verdict verdict = Verdict::kNoImpact;
  double p_value = ts::kMissing;
  double statistic = ts::kMissing;
  /// Signed central shift in KPI units (after minus before), for reporting.
  double effect_kpi_units = ts::kMissing;
  /// Diagnostic: regression fit quality (Litmus only; NaN otherwise).
  double fit_r_squared = ts::kMissing;
  /// True when the analyzer could not run (insufficient data); verdict is
  /// then kNoImpact by construction but should be treated as "unknown".
  bool degenerate = false;
  /// Audit trail: how this outcome was produced (see VerdictExplanation).
  VerdictExplanation explanation;
};

/// What the verdict rule concluded about one after/before pair.
struct Decision {
  /// At least 4 observed bins on each side; the rule ran no test
  /// otherwise, and every other field keeps its default.
  bool usable = false;
  RelativeChange relative = RelativeChange::kNoChange;
  double statistic = ts::kMissing;  ///< the test's z
  double p_value = ts::kMissing;
  double effect = ts::kMissing;  ///< median(after) - median(before)
  double floor = ts::kMissing;   ///< materiality floor, KPI units
  bool material = false;         ///< |effect| >= floor
  std::size_t n_after = 0;       ///< observed values the test compared
  std::size_t n_before = 0;
};

/// The verdict rule (paper §3.2 step 5; the study-only baseline applies it
/// to the raw study series). With at least 4 observed bins on each side,
/// `test` compares `after` with `before` at kAlpha, and a significant
/// shift counts as a relative change only when |median(after) -
/// median(before)| clears `floor_kpi_units`. Missing values are skipped.
/// Each test it runs is recorded in the `rank_test.<fp|wmw>.*` metrics.
Decision decide(std::span<const double> after, std::span<const double> before,
                double floor_kpi_units,
                ComparisonTest test = ComparisonTest::kRobustRankOrder);

/// Writes a usable decision into an analyzer's outcome: statistic,
/// p-value, effect, direction and the verdict under the KPI's polarity,
/// plus the explanation's sample sizes, floor and materiality.
void record_decision(const Decision& d, kpi::KpiId kpi, AnalysisOutcome& out);

}  // namespace litmus::core

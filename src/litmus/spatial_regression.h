// The Litmus robust spatial regression algorithm (paper Section 3.2).
//
// 1. Uniformly sample (without replacement) k of the N control elements,
//    k > N/2, the same subset before and after the change.
// 2. Learn beta from the before window: Y_b = beta X_b^s   (equation 2).
// 3. Forecast the study series from the controls before and after:
//    Y'_b = beta X_b^s, Y'_a = beta X_a^s                  (equation 3).
// 4. Repeat for `n_iterations` samples and aggregate the forecasts by the
//    per-bin *median* across iterations — a small number of contaminated
//    control elements appears in only some samples and is voted out.
// 5. Form forecast differences (equations 4, 5):
//      fd_a = Y_a - median(Y'_a),   fd_b = Y_b - median(Y'_b)
//    and compare them with the robust rank-order test. A significant shift
//    of fd_a against fd_b is a relative change of the study group against
//    the control group; its sign plus KPI polarity yields the verdict.
//
// Deliberately *unregularized* regression (no ridge/lasso): see linreg.h.
//
// Execution: forecast() runs the sampling iterations in index order on the
// calling thread; callers parallelize across study elements or change
// records instead (parallel/pool.h). Each iteration draws from its own
// counter-based RNG substream — Rng(seed).fork(iteration) — so the result
// never depends on which thread runs it. Each iteration predicts every
// bin with the simd::predict kernel and appends the non-missing
// forecasts to per-bin slices of one flat [bin][n_iterations] buffer.
// That buffer and the sampling scratch live in one thread_local struct
// owned by forecast(), so a steady-state Gram-path iteration makes no
// heap allocation.
#pragma once

#include <cstdint>

#include "litmus/analysis.h"

namespace litmus::core {

/// Ablation knobs (bench_ablation sweeps these; production uses defaults).
enum class ForecastAggregation : std::uint8_t {
  kMedian,  ///< the paper's choice: robust to contaminated iterations
  kMean,    ///< ablation: shows why median matters under contamination
};

enum class ComparisonTest : std::uint8_t {
  kRobustRankOrder,  ///< the paper's choice (Fligner-Policello)
  kWilcoxon,         ///< ablation: classical WMW
};

struct SpatialRegressionParams {
  std::size_t n_iterations = 25;   ///< sampling iterations
  /// Sampled fraction of the control group; the paper requires k > N/2.
  /// The effective k is max(floor(N * sample_fraction), floor(N/2) + 1),
  /// clamped to N and to the regression's degrees-of-freedom budget.
  double sample_fraction = 0.7;
  double alpha = 0.05;             ///< rank-test significance level
  /// Practical-significance floor: a statistically significant shift of the
  /// forecast difference is only reported as an impact when its magnitude
  /// exceeds this multiple of the KPI's per-bin noise scale (operationally,
  /// "significant performance impacts" — microscopic shifts do not gate a
  /// rollout).
  double min_effect_sigma = 0.25;
  std::uint64_t seed = 7;          ///< sampling seed (deterministic runs)
  ForecastAggregation aggregation = ForecastAggregation::kMedian;
  ComparisonTest test = ComparisonTest::kRobustRankOrder;
  /// Solve each iteration's subset on the precomputed Gram matrix
  /// (tsmath/gram.h) instead of re-running QR; iterations whose subset is
  /// inexact on the panel, or numerically unsafe, still fall back to QR.
  /// The panel is only precomputed when enough iterations amortize its
  /// O(m·N²) cost (GramPanel::worthwhile); otherwise the run is pure QR
  /// even with this on. Off = always QR (ablation / numerical cross-check).
  bool use_gram_fast_path = true;
  /// Sequential early stopping: run the sampling iterations in
  /// counter-ordered rounds (geometric schedule starting at
  /// `min_iterations`) and stop once the downstream rank-test verdict has
  /// been insensitive to further rounds for `stability_rounds` consecutive
  /// checkpoints under a jackknife-style perturbation of the per-bin
  /// aggregate (see DESIGN.md §16). Off (the default) runs the full
  /// `n_iterations` budget in one round through the same code path, so the
  /// output is unchanged from pre-adaptive releases. Stopping decisions are
  /// a pure function of (seed, completed-round results) — never of thread
  /// scheduling — so results stay bit-identical at any thread count.
  bool adaptive_sampling = false;
  /// First stability checkpoint; also the minimum iterations ever spent.
  std::size_t min_iterations = 8;
  /// Consecutive stable (and mutually consistent) checkpoints required
  /// before stopping. A checkpoint is stable when its verdict clears both
  /// thresholds with margin under the jackknife (spatial_regression.cpp).
  std::size_t stability_rounds = 2;
};

/// Why the sampling loop ended (Forecast::stop_reason).
enum class StopReason : std::uint8_t {
  kBudgetExhausted,  ///< ran all n_iterations (always the case adaptive-off)
  kStableVerdict,    ///< adaptive early stop: verdict insensitive to more rounds
  kFitFailures,      ///< every attempted iteration failed to fit
};

const char* to_string(StopReason r) noexcept;

class RobustSpatialRegression final : public ChangeAnalyzer {
 public:
  explicit RobustSpatialRegression(SpatialRegressionParams params = {})
      : params_(params) {}

  AnalysisOutcome assess(const ElementWindows& windows,
                         kpi::KpiId kpi) const override;
  std::string_view name() const noexcept override {
    return "litmus_spatial_regression";
  }

  /// Intermediate artifacts, exposed for the case-study benches (Figs 8-11
  /// plot forecast vs observed) and for tests.
  struct Forecast {
    ts::TimeSeries median_forecast_before;
    ts::TimeSeries median_forecast_after;
    ts::TimeSeries forecast_diff_before;
    ts::TimeSeries forecast_diff_after;
    double median_r_squared = ts::kMissing;
    std::size_t effective_k = 0;
    std::size_t successful_iterations = 0;
    /// Iterations actually attempted (== n_iterations unless adaptive
    /// sampling stopped early; 0 when the input was degenerate before any
    /// sampling ran).
    std::size_t iterations_attempted = 0;
    StopReason stop_reason = StopReason::kBudgetExhausted;
  };

  /// Runs steps 1-5 and returns the artifacts; ok == false on degenerate
  /// inputs (no usable controls or too little data). The second overload
  /// supplies the materiality floor (min_effect_sigma * KPI noise) so the
  /// adaptive stability check can evaluate the *full* downstream verdict,
  /// materiality included, at every checkpoint.
  bool forecast(const ElementWindows& windows, Forecast& out) const;
  bool forecast(const ElementWindows& windows, Forecast& out,
                double effect_floor_kpi_units) const;

 private:
  SpatialRegressionParams params_;
};

}  // namespace litmus::core

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
//    the control group; its sign plus KPI polarity yields the verdict. The
//    rule, materiality floor included, is core::decide() (analysis.h).
//
// Deliberately *unregularized* regression (no ridge/lasso): see linreg.h.
//
// Execution: forecast() runs the sampling iterations in index order on the
// calling thread; callers parallelize across study elements or change
// records instead (parallel/pool.h). Each iteration draws from its own
// counter-based RNG substream — Rng(seed).fork(iteration) — so the result
// never depends on which thread runs it. Each successful iteration owns
// one row of a flat [iteration][bin] forecast store, and the
// simd::predict kernel writes its forecasts straight into that row (NaN
// where a control lacks the bin). The per-bin median sorts 8 bins at a
// time down the rows with the simd::sort_lanes network; the final
// forecast and the adaptive checkpoints read it through one aggregation.
// The store, the sort's scratch and the sampling scratch live in one
// thread_local struct owned by forecast(), so a steady-state Gram-path
// iteration makes no heap allocation.
//
// Shared design: the study elements of one assessment regress onto the
// same control windows over the same bins, so their design matrices, Gram
// panel, k, sampled subsets and subset Cholesky factors are the same; only
// the study series differs. A SharedDesign holds that half once, and
// forecast() reads it for every element whose windows match its source
// bit for bit (DESIGN.md §8). Everything that depends on the study series
// stays per element, so an element's bits do not depend on whether it
// used the block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "litmus/analysis.h"
#include "tsmath/gram.h"
#include "tsmath/matrix.h"

namespace litmus::core {

/// Ablation knobs (bench_ablation sweeps these; production uses defaults).
enum class ForecastAggregation : std::uint8_t {
  kMedian,  ///< the paper's choice: robust to contaminated iterations
  kMean,    ///< ablation: shows why median matters under contamination
};

/// Adaptive sampling's round schedule (DESIGN.md §16), not settable. The
/// first stability checkpoint comes after kMinIterations iterations, which
/// is also the fewest an adaptive run ever spends; the loop stops after
/// kStabilityRounds consecutive stable (and mutually consistent)
/// checkpoints. A checkpoint is stable when its verdict clears both
/// thresholds with margin under the jackknife (spatial_regression.cpp).
inline constexpr std::size_t kMinIterations = 8;
inline constexpr std::size_t kStabilityRounds = 2;

struct SpatialRegressionParams {
  std::size_t n_iterations = 25;   ///< sampling iterations
  /// Sampled fraction of the control group; the paper requires k > N/2.
  /// The effective k is max(floor(N * sample_fraction), floor(N/2) + 1),
  /// clamped to N and to the regression's degrees-of-freedom budget.
  double sample_fraction = 0.7;
  /// The verdict rule's significance level, shared with the study-only
  /// baseline (not settable).
  static constexpr double alpha = kAlpha;
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
  /// kMinIterations) and stop once the downstream rank-test verdict has
  /// been insensitive to further rounds for kStabilityRounds consecutive
  /// checkpoints under a jackknife-style perturbation of the per-bin
  /// aggregate (see DESIGN.md §16). Off (the default) runs the full
  /// `n_iterations` budget in one round through the same code path, so the
  /// output is unchanged from pre-adaptive releases. Stopping decisions are
  /// a pure function of (seed, completed-round results) — never of thread
  /// scheduling — so results stay bit-identical at any thread count.
  bool adaptive_sampling = false;

  /// A SharedDesign serves only an analyzer with the params it was built
  /// with: they fix its subsets, its first round and its panel decision.
  bool operator==(const SpatialRegressionParams&) const = default;
};

/// The design half of one assessment, shared by its study elements: both
/// design matrices, the Gram panel, k, and the first sampling round's
/// subsets and Cholesky factors (DESIGN.md §8). Built from one element's
/// windows, entirely in the constructor, so the elements only read it.
/// forecast() uses it for an element with the same params whose study bins
/// and control windows equal the source's bit for bit, and builds its own
/// design otherwise. Later adaptive rounds, which an element that stops
/// early never reaches, each element samples and factors on its own, and so
/// does every iteration past kSharedFactorBytes of factors. `source` must
/// outlive the block.
class SharedDesign {
 public:
  /// The factors a block keeps, at most. A factor is (k+1)² doubles, and k
  /// is at most the observed before-bins less 5, so a budget of 25 over a
  /// 14-day hourly before window fits at any control-group size (at most
  /// 21 MiB); a longer window or a bigger budget shares only its first
  /// iterations' factors.
  static constexpr std::size_t kSharedFactorBytes = std::size_t{32} << 20;

  SharedDesign(const SpatialRegressionParams& params,
               const ElementWindows& source);

 private:
  friend class RobustSpatialRegression;

  /// Whether `w` has this block's design: the source's study-window bins
  /// and, control by control, bit-identical control windows.
  bool matches(const ElementWindows& w) const noexcept;

  SpatialRegressionParams params_;
  const ElementWindows* source_;
  ts::Matrix x_before_;
  ts::Matrix x_after_;
  std::size_t k_ = 0;
  bool use_gram_ = false;  ///< the panel was built (GramPanel::worthwhile)
  ts::GramPanel panel_;
  /// Iterations 0 .. factors_.size()-1: their subsets, k_ apiece back to
  /// back, and their factors of the panel's G.
  std::vector<std::size_t> subsets_;
  std::vector<ts::SubsetFactor> factors_;
};

/// Why the sampling loop ended (Forecast::stop_reason).
enum class StopReason : std::uint8_t {
  kBudgetExhausted,  ///< ran all n_iterations (always the case adaptive-off)
  kStableVerdict,    ///< adaptive early stop: verdict insensitive to more rounds
  kFitFailures,      ///< every attempted iteration failed to fit
};

const char* to_string(StopReason r) noexcept;

class RobustSpatialRegression {
 public:
  explicit RobustSpatialRegression(SpatialRegressionParams params = {})
      : params_(params) {}

  /// Reads `shared` when it is non-null and matches the windows.
  AnalysisOutcome assess(const ElementWindows& windows, kpi::KpiId kpi,
                         const SharedDesign* shared = nullptr) const;
  std::string_view name() const noexcept {
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
  /// inputs (no usable controls or too little data). assess() supplies the
  /// materiality floor (effect_floor(kpi)) so the adaptive stability check
  /// can evaluate the *full* downstream verdict, through the same decide()
  /// as assess(), at every checkpoint, and optionally a block of the
  /// assessment's shared design.
  bool forecast(const ElementWindows& windows, Forecast& out,
                double effect_floor_kpi_units = 0.0,
                const SharedDesign* shared = nullptr) const;

 private:
  SpatialRegressionParams params_;
};

}  // namespace litmus::core

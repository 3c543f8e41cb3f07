// Baseline 2: Difference in Differences (paper Section 3.2, equation (1);
// Meyer '95, Shadish et al. '02).
//
// For study element j and control element i:
//   d(i,j) = [h(Y_a(j)) - h(Y_b(j))] - [h(X_a(i)) - h(X_b(i))]
// with h = mean or median. The per-control measures are aggregated (mean,
// matching econometric practice) and tested against the noise floor
// estimated from the windows. The known weakness the paper exploits: a
// *mean* aggregate over controls is not robust, so performance changes in a
// small set of control elements bias the estimate (Abadie '05).
#pragma once

#include <string_view>

#include "litmus/analysis.h"

namespace litmus::core {

enum class CentralMeasure : std::uint8_t { kMean, kMedian };

struct DiDParams {
  CentralMeasure h = CentralMeasure::kMean;  ///< h(.) in equation (1)
  /// Aggregation of d(i,j) across controls; mean is the classical choice
  /// and the one the paper critiques. kMedian is provided for the ablation.
  CentralMeasure aggregate = CentralMeasure::kMean;
  /// Decision rule: "if there is no change in the relative performance ...
  /// the DiD measure should be near zero". Impact is declared when the
  /// aggregated measure exceeds this multiple of the KPI's per-bin noise
  /// scale. A z statistic (AR(1)-corrected) is reported for diagnostics.
  double threshold_sigma = 0.4;
};

class DiDAnalyzer {
 public:
  explicit DiDAnalyzer(DiDParams params = {}) : params_(params) {}

  AnalysisOutcome assess(const ElementWindows& windows,
                         kpi::KpiId kpi) const;
  std::string_view name() const noexcept {
    return "difference_in_differences";
  }

  /// The raw d(i,j) values, one per control element (exposed for tests and
  /// the ablation bench).
  std::vector<double> pairwise_did(const ElementWindows& windows) const;

 private:
  DiDParams params_;
};

}  // namespace litmus::core

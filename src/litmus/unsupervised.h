// Baseline 3: unsupervised subspace (PCA) anomaly detection, in the spirit
// of the network-wide detectors the paper's related work cites (Lakhina et
// al. SIGCOMM'04, Huang et al. NIPS'06) — Section 2.4.
//
// The detector pools the study and control series into a matrix (one column
// per element), learns the normal subspace on the before window, and flags
// the change when the study element's contribution to the residual
// (anomalous) subspace grows after the change.
//
// Two structural handicaps the paper calls out, reproduced faithfully here:
//   * no study/control attribution — the detector sees "columns", so an
//     anomaly anywhere in the group can be charged to the wrong element;
//   * no relative direction — detection carries no improvement/degradation
//     sign of its own. The best available proxy is the study element's
//     absolute shift, which is exactly what external factors corrupt
//     (Fig 7(c): both groups improve, study relatively degrades — the
//     proxy reports improvement).
#pragma once

#include <string_view>

#include "litmus/analysis.h"

namespace litmus::core {

struct PcaBaselineParams {
  /// Number of principal components forming the "normal" subspace; the
  /// classical choice captures the dominant common structure.
  std::size_t n_components = 3;
  /// Flag when the after-window mean residual energy of the study column
  /// exceeds this multiple of the before-window mean residual energy.
  double energy_ratio_threshold = 2.0;
};

class PcaBaselineAnalyzer {
 public:
  explicit PcaBaselineAnalyzer(PcaBaselineParams params = {})
      : params_(params) {}

  AnalysisOutcome assess(const ElementWindows& windows,
                         kpi::KpiId kpi) const;
  std::string_view name() const noexcept { return "pca_baseline"; }

 private:
  PcaBaselineParams params_;
};

}  // namespace litmus::core

#include "litmus/study_only.h"

namespace litmus::core {

AnalysisOutcome StudyOnlyAnalyzer::assess(const ElementWindows& windows,
                                          kpi::KpiId kpi) const {
  AnalysisOutcome out;
  out.explanation.analyzer = name().data();
  out.explanation.test = "robust_rank_order";
  out.explanation.alpha = kAlpha;
  const Decision d = decide(windows.study_after.values(),
                            windows.study_before.values(), effect_floor(kpi));
  if (!d.usable) {
    out.degenerate = true;
    out.explanation.note = "fewer than 4 observed study bins on one side";
    return out;
  }
  record_decision(d, kpi, out);
  return out;
}

}  // namespace litmus::core

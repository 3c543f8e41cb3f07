// Baseline 1: study-group-only analysis (paper Section 4.1, in the spirit
// of Mercury [SIGCOMM'10] / PRISM [CoNEXT'11]): compare the study element's
// KPI before vs after the change with a rank test, ignoring the control
// group entirely. Fast and simple — and, as the paper demonstrates, badly
// confused by external factors that move the whole region. It decides
// through the same rule as Litmus (decide(), analysis.h), so the two differ
// only in what they compare.
#pragma once

#include <string_view>

#include "litmus/analysis.h"

namespace litmus::core {

class StudyOnlyAnalyzer {
 public:
  AnalysisOutcome assess(const ElementWindows& windows,
                         kpi::KpiId kpi) const;
  std::string_view name() const noexcept { return "study_only"; }
};

}  // namespace litmus::core

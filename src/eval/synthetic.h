// Synthetic-injection evaluation (paper Section 4.3, Tables 3 and 4).
//
// Level shifts are injected into generated study/control series following
// the five Table-3 patterns (none / study / control / both-same /
// both-different), with a noise component (level change) planted in a small
// number of control elements to make dependency learning challenging. The
// sweep runs every pattern across four regions and four KPIs with many
// seeded trials, evaluates the three algorithms, and accumulates the
// Table-4 confusion summary.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "eval/group_sim.h"
#include "eval/labeling.h"

namespace litmus::eval {

/// Table 3 injection patterns.
enum class InjectionPattern : std::uint8_t {
  kNone,
  kStudyOnly,
  kControlOnly,
  kBothSameMagnitude,
  kBothDifferentMagnitude,
};

const char* to_string(InjectionPattern p) noexcept;

inline constexpr std::array<InjectionPattern, 5> kAllPatterns = {
    InjectionPattern::kNone, InjectionPattern::kStudyOnly,
    InjectionPattern::kControlOnly, InjectionPattern::kBothSameMagnitude,
    InjectionPattern::kBothDifferentMagnitude,
};

struct SyntheticConfig {
  std::uint64_t seed = 2013;
  /// Trials per (pattern, region, kpi) cell. The paper evaluates 8010
  /// cases; 5 patterns x 4 regions x 4 KPIs x 100 trials ~ 8000.
  std::size_t trials_per_cell = 100;
  std::size_t n_controls = 12;
  std::size_t before_bins = 14 * 24;  ///< "14 days before the change"
  std::size_t after_bins = 14 * 24;
  /// Injection magnitudes drawn from [min, max] sigma with random sign.
  double min_injection_sigma = 0.8;
  double max_injection_sigma = 3.0;
  /// For both-different: the relative gap between study and control.
  double min_gap_sigma = 0.8;
  /// Contamination ("a noise component (level change) in a small number of
  /// control group elements"): present in `contamination_probability` of
  /// trials; when present, 2-4 controls are bad predictors carrying an
  /// unrelated level change.
  double contamination_probability = 0.6;
  std::size_t min_contaminated_controls = 2;
  std::size_t max_contaminated_controls = 5;
  double min_contamination_sigma = 3.0;
  double max_contamination_sigma = 9.0;
};

/// Result of one trial: the ground truth plus each algorithm's labeling.
struct TrialOutcome {
  InjectionPattern pattern;
  core::Verdict truth;
  Outcome study_only;
  Outcome did;
  Outcome litmus;
};

struct SyntheticResults {
  ConfusionCounts study_only;
  ConfusionCounts did;
  ConfusionCounts litmus;
  /// Per-pattern breakdown (Table 3 view), indexed by InjectionPattern.
  std::array<ConfusionCounts, 5> study_only_by_pattern;
  std::array<ConfusionCounts, 5> did_by_pattern;
  std::array<ConfusionCounts, 5> litmus_by_pattern;
  std::size_t trials = 0;
};

/// Runs the full sweep, one par::parallel_for item per trial.
/// Deterministic given the config at any par::threads() (every trial's
/// seed is a pure function of its index; results merge in index order).
SyntheticResults run_synthetic_sweep(const SyntheticConfig& config);

/// Runs one trial (exposed for tests and the Table 3 bench).
TrialOutcome run_trial(const SyntheticConfig& config, InjectionPattern p,
                       net::Region region, kpi::KpiId kpi,
                       std::uint64_t trial_seed);

/// The four KPIs the paper's synthetic evaluation uses (voice and data
/// accessibility and retainability).
std::span<const kpi::KpiId> synthetic_kpis() noexcept;

/// The four geographically diverse regions (Section 4.3).
std::span<const net::Region> synthetic_regions() noexcept;

/// Formats Table 4 (counts + the four metrics for each algorithm).
std::string format_table4(const SyntheticResults& r);

/// Formats the Table 3 case-scenario matrix with observed outcome rates.
std::string format_table3(const SyntheticResults& r);

}  // namespace litmus::eval

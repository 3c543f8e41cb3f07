#include "eval/synthetic.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "litmus/did.h"
#include "litmus/spatial_regression.h"
#include "litmus/study_only.h"
#include "parallel/pool.h"
#include "tsmath/random.h"

namespace litmus::eval {
namespace {

constexpr std::array<kpi::KpiId, 4> kKpis = {
    kpi::KpiId::kVoiceAccessibility,
    kpi::KpiId::kVoiceRetainability,
    kpi::KpiId::kDataAccessibility,
    kpi::KpiId::kDataRetainability,
};

constexpr std::array<net::Region, 4> kRegions = {
    net::Region::kNortheast,
    net::Region::kSoutheast,
    net::Region::kWest,
    net::Region::kSouthwest,
};

std::string pct(double v) {
  if (std::isnan(v)) return "  n/a ";
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << 100.0 * v << "%";
  return os.str();
}

}  // namespace

const char* to_string(InjectionPattern p) noexcept {
  switch (p) {
    case InjectionPattern::kNone: return "none";
    case InjectionPattern::kStudyOnly: return "study";
    case InjectionPattern::kControlOnly: return "control";
    case InjectionPattern::kBothSameMagnitude: return "study+control same";
    case InjectionPattern::kBothDifferentMagnitude:
      return "study+control different";
  }
  return "?";
}

std::span<const kpi::KpiId> synthetic_kpis() noexcept { return kKpis; }
std::span<const net::Region> synthetic_regions() noexcept { return kRegions; }

TrialOutcome run_trial(const SyntheticConfig& cfg, InjectionPattern p,
                       net::Region region, kpi::KpiId kpi,
                       std::uint64_t trial_seed) {
  ts::Rng rng(trial_seed);

  auto draw_magnitude = [&]() {
    const double mag =
        rng.uniform(cfg.min_injection_sigma, cfg.max_injection_sigma);
    return rng.chance(0.5) ? mag : -mag;
  };

  double study_sigma = 0.0;
  double control_sigma = 0.0;
  switch (p) {
    case InjectionPattern::kNone:
      break;
    case InjectionPattern::kStudyOnly:
      study_sigma = draw_magnitude();
      break;
    case InjectionPattern::kControlOnly:
      control_sigma = draw_magnitude();
      break;
    case InjectionPattern::kBothSameMagnitude:
      study_sigma = draw_magnitude();
      control_sigma = study_sigma;
      break;
    case InjectionPattern::kBothDifferentMagnitude: {
      study_sigma = draw_magnitude();
      // Offset by at least the minimum gap, direction random.
      const double gap = cfg.min_gap_sigma + rng.uniform(0.0, 1.2);
      control_sigma = rng.chance(0.5) ? study_sigma + gap : study_sigma - gap;
      break;
    }
  }

  EpisodeSpec spec;
  spec.kpi = kpi;
  spec.region = region;
  spec.n_study = 1;
  spec.n_control = cfg.n_controls;
  spec.before_bins = cfg.before_bins;
  spec.after_bins = cfg.after_bins;
  spec.true_sigma = study_sigma;
  if (rng.chance(cfg.contamination_probability)) {
    spec.contaminated_controls =
        cfg.min_contaminated_controls +
        static_cast<std::size_t>(rng.next_below(
            cfg.max_contaminated_controls - cfg.min_contaminated_controls + 1));
    spec.contamination_sigma =
        rng.uniform(cfg.min_contamination_sigma, cfg.max_contamination_sigma);
    // One unrelated event hits the contaminated cluster: a common direction.
    spec.contamination_sign = rng.chance(0.5) ? 1 : -1;
  }
  spec.seed = rng.next_u64() | 1;

  const Episode ep = simulate_episode(spec, control_sigma);
  const core::ElementWindows& w = ep.study_windows.front();

  static const core::StudyOnlyAnalyzer study_only;
  static const core::DiDAnalyzer did;
  static const core::RobustSpatialRegression litmus;

  TrialOutcome out;
  out.pattern = p;
  out.truth = ep.truth;
  out.study_only = label(ep.truth, study_only.assess(w, kpi).verdict);
  out.did = label(ep.truth, did.assess(w, kpi).verdict);
  out.litmus = label(ep.truth, litmus.assess(w, kpi).verdict);
  return out;
}

SyntheticResults run_synthetic_sweep(const SyntheticConfig& cfg) {
  // Enumerate every trial up front so work can be split across threads
  // while keeping the per-trial seed a pure function of the trial index.
  struct TrialSpec {
    InjectionPattern pattern;
    net::Region region;
    kpi::KpiId kpi;
    std::uint64_t seed;
  };
  std::vector<TrialSpec> specs;
  std::uint64_t counter = 0;
  for (const InjectionPattern p : kAllPatterns)
    for (const net::Region region : kRegions)
      for (const kpi::KpiId kpi : kKpis)
        for (std::size_t t = 0; t < cfg.trials_per_cell; ++t)
          specs.push_back({p, region, kpi,
                           cfg.seed * 0x9E3779B97F4A7C15ULL +
                               (++counter) * 0x2545F4914F6CDD1DULL});

  std::vector<TrialOutcome> outcomes(specs.size());
  par::parallel_for(specs.size(), [&](std::size_t i) {
    obs::ScopedSpan span("synthetic.trial");
    const TrialSpec& s = specs[i];
    outcomes[i] = run_trial(cfg, s.pattern, s.region, s.kpi, s.seed);
  });
  if (obs::enabled())
    obs::Registry::global().counter("synthetic.trials").add(specs.size());

  SyntheticResults r;
  for (const TrialOutcome& o : outcomes) {
    const auto pi = static_cast<std::size_t>(o.pattern);
    r.study_only.add(o.study_only);
    r.did.add(o.did);
    r.litmus.add(o.litmus);
    r.study_only_by_pattern[pi].add(o.study_only);
    r.did_by_pattern[pi].add(o.did);
    r.litmus_by_pattern[pi].add(o.litmus);
    ++r.trials;
  }
  return r;
}

std::string format_table4(const SyntheticResults& r) {
  std::ostringstream os;
  os << "Table 4: Evaluation results using synthetic injection ("
     << r.trials << " cases)\n";
  os << "----------------------------------------------------------------------\n";
  os << "                     Study Group      Difference in    Litmus Robust\n";
  os << "                     Only Analysis    Differences      Spatial Regr.\n";
  os << "----------------------------------------------------------------------\n";
  auto row = [&](const char* name, auto get) {
    os << name;
    for (const ConfusionCounts* c : {&r.study_only, &r.did, &r.litmus}) {
      std::ostringstream cell;
      cell << get(*c);
      std::string s = cell.str();
      s.insert(s.begin(), 17 - std::min<std::size_t>(16, s.size()), ' ');
      os << s;
    }
    os << "\n";
  };
  row("True positive     ", [](const ConfusionCounts& c) { return std::to_string(c.tp); });
  row("True negative     ", [](const ConfusionCounts& c) { return std::to_string(c.tn); });
  row("False positive    ", [](const ConfusionCounts& c) { return std::to_string(c.fp); });
  row("False negative    ", [](const ConfusionCounts& c) { return std::to_string(c.fn); });
  row("Precision         ", [](const ConfusionCounts& c) { return pct(c.precision()); });
  row("Recall            ", [](const ConfusionCounts& c) { return pct(c.recall()); });
  row("True negative rate", [](const ConfusionCounts& c) { return pct(c.true_negative_rate()); });
  row("Accuracy          ", [](const ConfusionCounts& c) { return pct(c.accuracy()); });
  os << "----------------------------------------------------------------------\n";
  return os.str();
}

std::string format_table3(const SyntheticResults& r) {
  std::ostringstream os;
  os << "Table 3: case scenarios (share of correct outcomes per pattern)\n";
  os << "--------------------------------------------------------------------------\n";
  os << "Injection                 Expectation   StudyOnly   DiD      Litmus\n";
  os << "--------------------------------------------------------------------------\n";
  for (std::size_t i = 0; i < kAllPatterns.size(); ++i) {
    const InjectionPattern p = kAllPatterns[i];
    const char* expect =
        (p == InjectionPattern::kNone || p == InjectionPattern::kBothSameMagnitude)
            ? "no impact "
            : "impact    ";
    std::string name = to_string(p);
    name.resize(25, ' ');
    os << name << " " << expect << "   " << pct(r.study_only_by_pattern[i].accuracy())
       << "    " << pct(r.did_by_pattern[i].accuracy()) << "   "
       << pct(r.litmus_by_pattern[i].accuracy()) << "\n";
  }
  os << "--------------------------------------------------------------------------\n";
  return os.str();
}

}  // namespace litmus::eval

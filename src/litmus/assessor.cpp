#include "litmus/assessor.h"

#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"

namespace litmus::core {
namespace {

const char* verdict_metric(const AnalysisOutcome& o) noexcept {
  if (o.degenerate) return "verdict.degenerate";
  switch (o.verdict) {
    case Verdict::kImprovement: return "verdict.improvement";
    case Verdict::kDegradation: return "verdict.degradation";
    case Verdict::kNoImpact: return "verdict.no_impact";
  }
  return "verdict.no_impact";
}

}  // namespace

Assessor::Assessor(const net::Topology& topo, SeriesProvider provider,
                   AssessmentConfig config)
    : topo_(&topo),
      provider_(std::move(provider)),
      config_(config),
      algorithm_(config.regression) {
  if (!provider_) throw std::invalid_argument("Assessor: null provider");
  if (config_.before_bins < 8 || config_.after_bins < 8)
    throw std::invalid_argument("Assessor: windows too short");
}

ElementWindows Assessor::windows_for(net::ElementId study,
                                     std::span<const net::ElementId> control,
                                     kpi::KpiId kpi,
                                     std::int64_t change_bin) const {
  ElementWindows w;
  const std::int64_t before_start =
      change_bin - static_cast<std::int64_t>(config_.before_bins);
  const std::int64_t after_start =
      change_bin + static_cast<std::int64_t>(config_.guard_bins);
  w.study_before = provider_(study, kpi, before_start, config_.before_bins);
  w.study_after = provider_(study, kpi, after_start, config_.after_bins);
  w.control_before.reserve(control.size());
  w.control_after.reserve(control.size());
  for (const auto c : control) {
    w.control_before.push_back(
        provider_(c, kpi, before_start, config_.before_bins));
    w.control_after.push_back(
        provider_(c, kpi, after_start, config_.after_bins));
  }
  return w;
}

ChangeAssessment Assessor::assess(std::span<const net::ElementId> study,
                                  std::span<const net::ElementId> control,
                                  kpi::KpiId kpi,
                                  std::int64_t change_bin) const {
  // Window fetch stays on the calling thread: a SeriesProvider is a
  // user-supplied closure with no thread-safety contract.
  std::vector<ElementWindows> windows;
  windows.reserve(study.size());
  for (const auto s : study)
    windows.push_back(windows_for(s, control, kpi, change_bin));
  return assess_windows(study, control, windows, kpi, change_bin);
}

ChangeAssessment Assessor::assess_windows(
    std::span<const net::ElementId> study,
    std::span<const net::ElementId> control,
    std::span<const ElementWindows> windows, kpi::KpiId kpi,
    std::int64_t change_bin) const {
  if (windows.size() != study.size())
    throw std::invalid_argument("assess_windows: one window set per element");
  obs::ScopedSpan kpi_span("assess.kpi");
  ChangeAssessment a;
  a.kpi = kpi;
  a.change_bin = change_bin;
  a.study_group.assign(study.begin(), study.end());
  a.control_group.assign(control.begin(), control.end());

  // Study elements that share the control group share its design: one
  // block, built from the first element's windows, serves every element
  // whose windows match it bit for bit (DESIGN.md §8).
  std::optional<SharedDesign> shared;
  if (windows.size() >= 2) shared.emplace(config_.regression, windows[0]);
  std::vector<AnalysisOutcome> outcomes(windows.size());
  par::parallel_for(windows.size(), [&](std::size_t i) {
    obs::ScopedSpan element_span("assess.element");
    outcomes[i] =
        algorithm_.assess(windows[i], kpi, shared ? &*shared : nullptr);
  });
  a.per_element.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (obs::enabled()) {
      auto& reg = obs::Registry::global();
      reg.counter("assess.elements").add();
      reg.counter(verdict_metric(outcomes[i])).add();
    }
    if (auto* ev = obs::events()) {
      const AnalysisOutcome& o = outcomes[i];
      ev->emit(obs::EventType::kElementAssessed, [&](obs::JsonWriter& w) {
        w.member("kpi", kpi::to_string(kpi))
            .member("element", static_cast<std::uint64_t>(study[i].value))
            .member("bin", static_cast<std::int64_t>(change_bin))
            .member("verdict", to_string(o.verdict))
            .member("degenerate", o.degenerate)
            .member("p", o.p_value)
            .member("effect", o.effect_kpi_units);
      });
    }
    a.per_element.push_back({study[i], outcomes[i]});
  }
  {
    obs::ScopedSpan vote_span("vote");
    a.summary = vote(outcomes);
  }
  if (obs::enabled()) obs::Registry::global().counter("assess.votes").add();
  if (auto* ev = obs::events()) {
    ev->emit(obs::EventType::kKpiVerdict, [&](obs::JsonWriter& w) {
      w.member("kpi", kpi::to_string(kpi))
          .member("bin", static_cast<std::int64_t>(change_bin));
      // A single-element study (every batch record) names its element:
      // records that share (kpi, bin) within one event stream need
      // distinct verdict keys for diff-runs to compare them one by one.
      if (study.size() == 1)
        w.member("element", static_cast<std::uint64_t>(study[0].value));
      w.member("verdict", to_string(a.summary.verdict))
          .member("elements",
                  static_cast<std::uint64_t>(a.per_element.size()))
          .member("confidence", a.summary.confidence);
    });
  }
  return a;
}

ChangeAssessment Assessor::assess_with_selection(
    std::span<const net::ElementId> study, const ControlPredicate& predicate,
    kpi::KpiId kpi, std::int64_t change_bin,
    const SelectionPolicy& policy) const {
  const SelectionResult sel =
      select_control_group(*topo_, study, predicate, policy);
  return assess(study, sel.controls, kpi, change_bin);
}

FfaDecision Assessor::ffa_decision(std::span<const net::ElementId> study,
                                   std::span<const net::ElementId> control,
                                   std::span<const kpi::KpiId> kpis,
                                   std::int64_t change_bin) const {
  FfaDecision d;
  d.go = true;
  std::string why;
  for (const auto k : kpis) {
    ChangeAssessment a = assess(study, control, k, change_bin);
    if (a.summary.verdict == Verdict::kDegradation) {
      d.go = false;
      why += std::string(kpi::to_string(k)) + ": voted degradation. ";
    } else {
      std::size_t degraded = 0;
      for (const auto& e : a.per_element)
        if (!e.outcome.degenerate &&
            e.outcome.verdict == Verdict::kDegradation)
          ++degraded;
      if (degraded > 0) {
        d.go = false;
        why += std::string(kpi::to_string(k)) + ": " +
               std::to_string(degraded) + " element(s) degraded. ";
      }
    }
    d.per_kpi.push_back(std::move(a));
  }
  d.rationale = d.go ? "no degradation detected on any KPI at any study "
                       "element; change is safe to roll out"
                     : why + "hold the rollout and investigate";
  return d;
}

}  // namespace litmus::core

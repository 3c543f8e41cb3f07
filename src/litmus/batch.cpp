#include "litmus/batch.h"

#include <atomic>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"

namespace litmus::core {
namespace {

Verdict expected_verdict(chg::Expectation e) {
  switch (e) {
    case chg::Expectation::kImprovement: return Verdict::kImprovement;
    case chg::Expectation::kDegradation: return Verdict::kDegradation;
    case chg::Expectation::kNoImpact: return Verdict::kNoImpact;
  }
  return Verdict::kNoImpact;
}

/// Shared state for one batch run.
struct BatchContext {
  const chg::ChangeLog* log = nullptr;
  const net::Topology* topo = nullptr;
  const BatchConfig* config = nullptr;
  Assessor* assessor = nullptr;
  /// Guards assessor->windows_for: a SeriesProvider has no thread-safety
  /// contract, so record tasks take turns fetching their windows.
  std::mutex provider_mu;
  chg::ChangeIndex conflict_index;
  /// Control-candidate groups by group_key value, each in topology
  /// (insertion) order; empty when config->group_key is unset.
  std::unordered_map<std::uint64_t, std::vector<net::ElementId>> groups;
  std::atomic<std::uint64_t> done{0};
  /// Live adaptive-sampling counters for heartbeat lines (relaxed — the
  /// deterministic per-record numbers are computed in record order by
  /// the tallies, these only feed progress events).
  bool adaptive = false;
  std::atomic<std::uint64_t> adaptive_stopped{0};
  std::atomic<std::uint64_t> adaptive_saved{0};

  BatchContext(const chg::ChangeLog& l, const net::Topology& t,
               const BatchConfig& c, Assessor& a)
      : log(&l), topo(&t), config(&c), assessor(&a), conflict_index(l),
        adaptive(c.assessment.regression.adaptive_sampling) {
    if (c.group_key)
      for (const auto id : t.all())
        groups[c.group_key(t, id)].push_back(id);
  }

  std::span<const net::ElementId> candidates_for(net::ElementId study) const {
    if (!config->group_key) return topo->all();
    const auto it = groups.find(config->group_key(*topo, study));
    if (it == groups.end()) return {};
    return it->second;
  }
};

/// Assesses every record of the log into its slot of `report.items`, one
/// pool task per record: conflict check, control selection, window fetch
/// and the regressions, so a worker drops one record's windows before it
/// claims the next. Tallies are NOT updated here — the caller computes
/// them in record order at the end.
void assess_records_into(BatchContext& ctx, BatchReport& report) {
  const auto& records = ctx.log->all();
  const auto& config = *ctx.config;
  const auto lookback =
      static_cast<std::int64_t>(config.assessment.before_bins);
  const auto lookahead =
      static_cast<std::int64_t>(config.assessment.after_bins);

  // Long batches stay watchable: a heartbeat event every few completed
  // records, plus one at the end of the log.
  par::parallel_for(records.size(), [&](std::size_t i) {
    obs::ScopedSpan record_span("batch.record");
    if (obs::enabled())
      obs::Registry::global().counter("batch.records").add();
    const auto& record = records[i];
    BatchItem& item = report.items[i];
    item.record = record;
    item.conflicts = ctx.conflict_index.conflicting_changes(
        *ctx.topo, record.element, record.bin - lookback,
        record.bin + lookahead, record.id);
    item.window_clean = item.conflicts.empty();

    const net::ElementId study[] = {record.element};
    const std::vector<net::ElementId> controls =
        select_control_group_among(*ctx.topo,
                                   ctx.candidates_for(record.element), study,
                                   config.predicate, config.selection)
            .controls;
    const ElementWindows windows = [&] {
      const std::lock_guard<std::mutex> lock(ctx.provider_mu);
      return ctx.assessor->windows_for(record.element, controls,
                                       record.target_kpi, record.bin);
    }();
    item.assessment = ctx.assessor->assess_windows(
        study, controls, {&windows, 1}, record.target_kpi, record.bin);
    item.met_expectation = item.assessment.summary.verdict ==
                           expected_verdict(record.expectation);
    if (ctx.adaptive)
      for (const auto& e : item.assessment.per_element) {
        const VerdictExplanation& x = e.outcome.explanation;
        if (x.iterations_used > 0 &&
            x.iterations_used < x.iterations_requested) {
          ctx.adaptive_stopped.fetch_add(1, std::memory_order_relaxed);
          ctx.adaptive_saved.fetch_add(
              x.iterations_requested - x.iterations_used,
              std::memory_order_relaxed);
        }
      }
    if (auto* ev = obs::events())
      ev->progress("batch",
                   ctx.done.fetch_add(1, std::memory_order_relaxed) + 1,
                   records.size(), /*every=*/16, [&](obs::JsonWriter& w) {
                     if (ctx.adaptive)
                       w.member("adaptive.stopped_early",
                                ctx.adaptive_stopped.load(
                                    std::memory_order_relaxed))
                           .member("adaptive.iterations_saved",
                                   ctx.adaptive_saved.load(
                                       std::memory_order_relaxed));
                   });
  });
}

/// Tallies, in record order. Adaptive budget is only counted for outcomes
/// whose sampling loop ran, so used/budget compares like with like.
void tally(BatchReport& report, bool adaptive) {
  report.adaptive_sampling = adaptive;
  for (const BatchItem& item : report.items) {
    switch (item.assessment.summary.verdict) {
      case Verdict::kImprovement: ++report.improvements; break;
      case Verdict::kDegradation: ++report.degradations; break;
      case Verdict::kNoImpact: ++report.no_impacts; break;
    }
    if (!item.window_clean) ++report.dirty_windows;
    if (!item.met_expectation) ++report.expectation_misses;
    if (!adaptive) continue;
    for (const auto& e : item.assessment.per_element) {
      const VerdictExplanation& x = e.outcome.explanation;
      if (x.iterations_used == 0) continue;
      report.adaptive_iterations_used += x.iterations_used;
      report.adaptive_iterations_budget += x.iterations_requested;
      if (x.iterations_used < x.iterations_requested)
        ++report.adaptive_stopped_early;
    }
  }
}

}  // namespace

BatchReport assess_change_log(const chg::ChangeLog& log,
                              const net::Topology& topo,
                              const SeriesProvider& provider,
                              BatchConfig config) {
  if (!config.predicate)
    config.predicate = all_of({same_region(), same_technology()});
  Assessor assessor(topo, provider, config.assessment);
  BatchContext ctx(log, topo, config, assessor);

  BatchReport report;
  report.items.resize(log.size());
  assess_records_into(ctx, report);
  tally(report, ctx.adaptive);
  return report;
}

std::string format_batch_report(const BatchReport& report,
                                const net::Topology& topo) {
  std::ostringstream os;
  os << "=== change-log assessment: " << report.items.size()
     << " change(s) ===\n";
  os << "id   element                 type                verdict       "
        "expectation-met  window\n";
  for (const auto& item : report.items) {
    std::string name = topo.get(item.record.element).name;
    name.resize(23, ' ');
    std::string type = chg::to_string(item.record.type);
    type.resize(19, ' ');
    std::string verdict = to_string(item.assessment.summary.verdict);
    verdict.resize(13, ' ');
    os << item.record.id << "    " << name << " " << type << " " << verdict
       << " " << (item.met_expectation ? "yes" : "NO ") << "              "
       << (item.window_clean
               ? "clean"
               : "dirty (" + std::to_string(item.conflicts.size()) +
                     " conflict(s))")
       << "\n";
  }
  os << "summary: " << report.improvements << " improvement(s), "
     << report.degradations << " degradation(s), " << report.no_impacts
     << " no-impact; " << report.expectation_misses
     << " expectation miss(es); " << report.dirty_windows
     << " dirty window(s)\n";
  if (report.adaptive_sampling)
    os << "adaptive sampling: " << report.adaptive_stopped_early
       << " early stop(s); " << report.adaptive_iterations_used << "/"
       << report.adaptive_iterations_budget << " iteration(s) of budget\n";
  return os.str();
}

}  // namespace litmus::core

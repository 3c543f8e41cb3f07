// Batch assessment of an entire change log (the Mercury-style network-wide
// sweep the paper cites as related work, here with Litmus's study/control
// machinery): for every change record, check the window for conflicting
// changes, select a control group, run the robust spatial regression on the
// change's target KPI, and collect everything into one report the
// operations review can walk.
//
// Scale machinery (DESIGN.md §15). Three properties keep a million-record
// sweep tractable without changing a single verdict:
//
//   * Indexed candidates — BatchConfig::group_key lets the driver enumerate
//     control candidates from a precomputed equivalence group instead of
//     scanning the whole topology per record. The full per-candidate rule
//     set still runs (select_control_group_among), so results are exact.
//   * Indexed conflicts — a chg::ChangeIndex answers the contamination
//     query per record in O(|scope| + hits) instead of a full-log scan.
//   * One task per record — a record runs from conflict check to verdict
//     on one worker, which drops its windows before claiming the next, so
//     peak memory holds one record's windows per worker.
//
// Records are the batch's one parallel level, claimed dynamically
// (par::parallel_for). Provider calls are serialised, so a SeriesProvider
// is never called concurrently; BatchConfig::predicate and group_key run
// on pool threads (every in-repo one is a pure read of the const
// topology). Per-record assessment depends only on (record, topo,
// provider, config) — the sampling RNG is a counter-forked pure function
// of (seed, iteration), and a record builds its Gram panel in its
// thread's own scratch, sharing no state with other records — and tallies
// are computed in record order at the end, so the report is bit-identical
// at any thread count, which tests/litmus/batch_test.cpp pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "changelog/changelog.h"
#include "litmus/assessor.h"
// Nothing here uses the panel cache. The end-to-end benchmark
// (bench/e2e/bench_e2e.cpp) reaches PanelCache through this include, so it
// stays until that benchmark stops calling it.
#include "litmus/panel_cache.h"

namespace litmus::core {

struct BatchConfig {
  AssessmentConfig assessment;
  SelectionPolicy selection;
  /// Default predicate: same region + same technology (overridable).
  ControlPredicate predicate;
  /// Optional equivalence-group key for indexed control selection. When
  /// set, candidates for a study element are enumerated from the group of
  /// elements sharing its key instead of the whole topology. The key must
  /// be conservative: every element the predicate could accept for a study
  /// element must share that element's key (equivalence predicates — same
  /// zip + same technology, same upstream MSC — qualify; the predicate is
  /// still evaluated per candidate, so an over-wide group costs time, never
  /// correctness). Unset keeps the full scan.
  std::function<std::uint64_t(const net::Topology&, net::ElementId)>
      group_key;
};

struct BatchItem {
  chg::ChangeRecord record;
  bool window_clean = false;  ///< no conflicting changes in scope
  std::vector<chg::ChangeRecord> conflicts;
  ChangeAssessment assessment;
  /// True when the change's outcome matched the recorded expectation.
  bool met_expectation = false;
};

struct BatchReport {
  std::vector<BatchItem> items;
  std::size_t improvements = 0;
  std::size_t degradations = 0;
  std::size_t no_impacts = 0;
  std::size_t dirty_windows = 0;
  std::size_t expectation_misses = 0;
  /// Adaptive-sampling tallies over every (element, KPI) outcome whose
  /// sampling loop actually ran, computed in record order like the
  /// verdict tallies (all zero when adaptive sampling is off).
  bool adaptive_sampling = false;
  std::size_t adaptive_stopped_early = 0;
  std::uint64_t adaptive_iterations_used = 0;
  std::uint64_t adaptive_iterations_budget = 0;
};

/// Assesses every record in `log` against `topo` and `provider`.
BatchReport assess_change_log(const chg::ChangeLog& log,
                              const net::Topology& topo,
                              const SeriesProvider& provider,
                              BatchConfig config = {});

/// Multi-line, one row per change.
std::string format_batch_report(const BatchReport& report,
                                const net::Topology& topo);

}  // namespace litmus::core

#include "litmus/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>

#include "cellnet/builder.h"
#include "parallel/pool.h"
#include "simkit/generator.h"
#include "simkit/network_events.h"

namespace litmus::core {
namespace {

struct Fixture {
  net::Topology topo;
  std::unique_ptr<sim::KpiGenerator> gen;
  std::vector<net::ElementId> rncs;
  chg::ChangeLog log;

  Fixture() {
    topo = net::build_small_region(net::Region::kWest, 838, 8, 4);
    rncs = topo.of_kind(net::ElementKind::kRnc);
    gen = std::make_unique<sim::KpiGenerator>(topo,
                                              sim::GeneratorConfig{.seed = 838});
  }

  void add_effect(net::ElementId at, double sigma, std::int64_t bin) {
    sim::UpstreamEvent ev;
    ev.source = at;
    ev.start_bin = bin;
    ev.sigma_shift = sigma;
    gen->add_factor(std::make_shared<sim::NetworkEventFactor>(
        topo, std::vector<sim::UpstreamEvent>{ev}));
  }

  chg::ChangeRecord make_record(net::ElementId at, std::int64_t bin,
                                chg::Expectation expect) {
    chg::ChangeRecord r;
    r.element = at;
    r.bin = bin;
    r.type = chg::ChangeType::kConfigChange;
    r.expectation = expect;
    r.target_kpi = kpi::KpiId::kVoiceRetainability;
    return r;
  }

  SeriesProvider provider() {
    return [g = gen.get()](net::ElementId e, kpi::KpiId k, std::int64_t s,
                           std::size_t n) { return g->kpi_series(e, k, s, n); };
  }
};

TEST(Batch, AssessesEveryRecordWithExpectations) {
  Fixture f;
  // Change 1: a real improvement, expected improvement -> met.
  f.add_effect(f.rncs[0], +1.6, 0);
  f.log.add(f.make_record(f.rncs[0], 0, chg::Expectation::kImprovement));
  // Change 2: neutral, expected improvement -> missed expectation.
  f.log.add(
      f.make_record(f.rncs[1], 1000, chg::Expectation::kImprovement));
  // Change 3: a regression the team expected to be neutral -> missed.
  f.add_effect(f.rncs[2], -1.6, 2000);
  f.log.add(f.make_record(f.rncs[2], 2000, chg::Expectation::kNoImpact));

  const BatchReport report =
      assess_change_log(f.log, f.topo, f.provider());
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.items[0].assessment.summary.verdict,
            Verdict::kImprovement);
  EXPECT_TRUE(report.items[0].met_expectation);
  EXPECT_EQ(report.items[1].assessment.summary.verdict, Verdict::kNoImpact);
  EXPECT_FALSE(report.items[1].met_expectation);
  EXPECT_EQ(report.items[2].assessment.summary.verdict,
            Verdict::kDegradation);
  EXPECT_FALSE(report.items[2].met_expectation);
  EXPECT_EQ(report.improvements, 1u);
  EXPECT_EQ(report.degradations, 1u);
  EXPECT_EQ(report.no_impacts, 1u);
  EXPECT_EQ(report.expectation_misses, 2u);
}

TEST(Batch, FlagsDirtyWindows) {
  Fixture f;
  // Two changes at the same RNC three days apart: each contaminates the
  // other's window.
  f.log.add(f.make_record(f.rncs[0], 0, chg::Expectation::kNoImpact));
  f.log.add(f.make_record(f.rncs[0], 3 * 24, chg::Expectation::kNoImpact));
  // A lone change far away in time: clean.
  f.log.add(
      f.make_record(f.rncs[1], 5000, chg::Expectation::kNoImpact));

  const BatchReport report =
      assess_change_log(f.log, f.topo, f.provider());
  EXPECT_FALSE(report.items[0].window_clean);
  EXPECT_FALSE(report.items[1].window_clean);
  EXPECT_TRUE(report.items[2].window_clean);
  EXPECT_EQ(report.dirty_windows, 2u);
  EXPECT_EQ(report.items[0].conflicts.size(), 1u);
}

TEST(Batch, EmptyLogEmptyReport) {
  Fixture f;
  const BatchReport report =
      assess_change_log(f.log, f.topo, f.provider());
  EXPECT_TRUE(report.items.empty());
  EXPECT_EQ(report.improvements + report.degradations + report.no_impacts,
            0u);
}

TEST(Batch, FormatContainsKeyRows) {
  Fixture f;
  f.add_effect(f.rncs[0], +1.6, 0);
  f.log.add(f.make_record(f.rncs[0], 0, chg::Expectation::kImprovement));
  const BatchReport report =
      assess_change_log(f.log, f.topo, f.provider());
  const std::string text = format_batch_report(report, f.topo);
  EXPECT_NE(text.find("1 change(s)"), std::string::npos);
  EXPECT_NE(text.find("improvement"), std::string::npos);
  EXPECT_NE(text.find(f.topo.get(f.rncs[0]).name), std::string::npos);
  EXPECT_NE(text.find("clean"), std::string::npos);
}

TEST(Batch, CustomPredicateHonoured) {
  Fixture f;
  f.add_effect(f.rncs[0], +1.6, 0);
  f.log.add(f.make_record(f.rncs[0], 0, chg::Expectation::kImprovement));
  BatchConfig cfg;
  cfg.predicate = all_of({same_upstream(net::ElementKind::kMsc),
                          same_technology()});
  const BatchReport report =
      assess_change_log(f.log, f.topo, f.provider(), cfg);
  ASSERT_EQ(report.items.size(), 1u);
  for (const auto c : report.items[0].assessment.control_group)
    EXPECT_EQ(f.topo.ancestor_of_kind(c, net::ElementKind::kMsc),
              f.topo.ancestor_of_kind(f.rncs[0], net::ElementKind::kMsc));
}

TEST(Batch, ProviderCallsNeverOverlap) {
  // Records run on every pool thread, but their window fetches take turns:
  // a SeriesProvider is never called concurrently. (The fixture's
  // KpiGenerator keeps an unsynchronised cache, so an overlap is a race.)
  Fixture f;
  for (std::size_t i = 0; i < 64; ++i)
    f.log.add(f.make_record(f.rncs[i % f.rncs.size()],
                            static_cast<std::int64_t>(i) * 500,
                            chg::Expectation::kNoImpact));
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<std::size_t> calls{0};
  const SeriesProvider inner = f.provider();
  const SeriesProvider counting = [&](net::ElementId e, kpi::KpiId k,
                                      std::int64_t start, std::size_t n) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    calls.fetch_add(1);
    std::this_thread::yield();  // widen the window an overlap would show in
    ts::TimeSeries out = inner(e, k, start, n);
    in_flight.fetch_sub(1);
    return out;
  };

  par::set_threads(4);
  const BatchReport report = assess_change_log(f.log, f.topo, counting);
  par::set_threads(0);

  EXPECT_EQ(max_in_flight.load(), 1);
  // Before and after windows for the study element and every control.
  std::size_t expected = 0;
  for (const BatchItem& item : report.items)
    expected += 2 * (1 + item.assessment.control_group.size());
  EXPECT_EQ(calls.load(), expected);
}

/// One record per RNC, real shifts on every third and placebos elsewhere,
/// spread over time so the tallies exercise every counter.
void add_mixed_log(Fixture& f) {
  for (std::size_t i = 0; i < f.rncs.size(); ++i) {
    const auto bin = static_cast<std::int64_t>(i) * 2000;
    if (i % 3 == 0) f.add_effect(f.rncs[i], (i % 6 == 0) ? +1.6 : -1.6, bin);
    f.log.add(f.make_record(f.rncs[i], bin, chg::Expectation::kNoImpact));
  }
}

/// Bit-level, not approximate: == on doubles (memcmp) is the guarantee.
void expect_reports_bit_identical(const BatchReport& a,
                                  const BatchReport& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const BatchItem& x = a.items[i];
    const BatchItem& y = b.items[i];
    EXPECT_EQ(x.record.element.value, y.record.element.value);
    EXPECT_EQ(x.window_clean, y.window_clean);
    EXPECT_EQ(x.conflicts.size(), y.conflicts.size());
    EXPECT_EQ(x.met_expectation, y.met_expectation);
    EXPECT_EQ(x.assessment.summary.verdict, y.assessment.summary.verdict);
    EXPECT_EQ(x.assessment.summary.confidence,
              y.assessment.summary.confidence);
    ASSERT_EQ(x.assessment.per_element.size(),
              y.assessment.per_element.size());
    for (std::size_t j = 0; j < x.assessment.per_element.size(); ++j) {
      const auto& p = x.assessment.per_element[j];
      const auto& q = y.assessment.per_element[j];
      EXPECT_EQ(p.element.value, q.element.value);
      EXPECT_EQ(p.outcome.verdict, q.outcome.verdict);
      EXPECT_EQ(p.outcome.degenerate, q.outcome.degenerate);
      EXPECT_EQ(std::memcmp(&p.outcome.p_value, &q.outcome.p_value,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&p.outcome.effect_kpi_units,
                            &q.outcome.effect_kpi_units, sizeof(double)),
                0);
      EXPECT_EQ(p.outcome.explanation.iterations_used,
                q.outcome.explanation.iterations_used);
      EXPECT_STREQ(p.outcome.explanation.stop_reason,
                   q.outcome.explanation.stop_reason);
    }
    ASSERT_EQ(x.assessment.control_group.size(),
              y.assessment.control_group.size());
    for (std::size_t j = 0; j < x.assessment.control_group.size(); ++j)
      EXPECT_EQ(x.assessment.control_group[j].value,
                y.assessment.control_group[j].value);
  }
  EXPECT_EQ(a.improvements, b.improvements);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.no_impacts, b.no_impacts);
  EXPECT_EQ(a.dirty_windows, b.dirty_windows);
  EXPECT_EQ(a.expectation_misses, b.expectation_misses);
  EXPECT_EQ(a.adaptive_sampling, b.adaptive_sampling);
  EXPECT_EQ(a.adaptive_stopped_early, b.adaptive_stopped_early);
  EXPECT_EQ(a.adaptive_iterations_used, b.adaptive_iterations_used);
  EXPECT_EQ(a.adaptive_iterations_budget, b.adaptive_iterations_budget);
}

/// (threads, adaptive sampling). Records are the batch's parallel level,
/// so the report at any thread count must equal the 1-thread report of the
/// same config bit for bit — adaptive-on included, since early-stop
/// decisions are a pure function of (seed, completed rounds).
class BatchDeterminism
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
 protected:
  void TearDown() override { par::set_threads(0); }
};

TEST_P(BatchDeterminism, ReportBitIdenticalToOneThread) {
  const auto [threads, adaptive] = GetParam();
  Fixture f;
  add_mixed_log(f);
  BatchConfig cfg;
  cfg.assessment.regression.adaptive_sampling = adaptive;

  par::set_threads(1);
  const BatchReport reference =
      assess_change_log(f.log, f.topo, f.provider(), cfg);
  EXPECT_EQ(reference.adaptive_sampling, adaptive);
  EXPECT_GT(reference.improvements + reference.degradations, 0u);
  if (adaptive) EXPECT_GT(reference.adaptive_iterations_budget, 0u);

  par::set_threads(threads);
  expect_reports_bit_identical(
      assess_change_log(f.log, f.topo, f.provider(), cfg), reference);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByAdaptive, BatchDeterminism,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Bool()));

TEST(Batch, AdaptiveOffReportMatchesDefaultConfig) {
  // Adaptive-off must remain byte-for-byte the pre-adaptive behavior: a
  // default-config run and an explicit adaptive_sampling=false run are the
  // same code path, and the adaptive tallies stay zero.
  Fixture f;
  add_mixed_log(f);
  BatchConfig off;
  off.assessment.regression.adaptive_sampling = false;
  const BatchReport a = assess_change_log(f.log, f.topo, f.provider());
  const BatchReport b = assess_change_log(f.log, f.topo, f.provider(), off);
  expect_reports_bit_identical(a, b);
  EXPECT_FALSE(a.adaptive_sampling);
  EXPECT_EQ(a.adaptive_stopped_early, 0u);
  EXPECT_EQ(a.adaptive_iterations_used, b.adaptive_iterations_used);
}

}  // namespace
}  // namespace litmus::core

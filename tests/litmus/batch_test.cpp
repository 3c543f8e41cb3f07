#include "litmus/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

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

}  // namespace
}  // namespace litmus::core

// The determinism contract, end to end: one change log assessed by
// assess_change_log reports the same bits at 1 and 4 threads, on the
// scalar and the native kernel tier, and from the heap SeriesStore and the
// mapped snapshot of the same series. Adaptive sampling changes the report
// on purpose (it stops records early), so each adaptive mode has its own
// hash. The kernel-level tier checks live in simd_test, and the proof that
// forecast() hands the pool no work in parallel_determinism_test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cellnet/builder.h"
#include "io/mapped_store.h"
#include "io/snapshot.h"
#include "io/store.h"
#include "litmus/batch.h"
#include "obs/manifest.h"
#include "parallel/pool.h"
#include "simkit/generator.h"
#include "simkit/network_events.h"
#include "tsmath/simd/dispatch.h"

namespace litmus::io {
namespace {

namespace fs = std::filesystem;
using core::BatchReport;

// FNV-1a over the bytes of each field: == on doubles is bitwise here.
struct Hasher {
  std::uint64_t h = 14695981039346656037ull;  // the FNV-1a offset basis
  void bytes(const void* p, std::size_t n) { h = obs::fnv1a64(p, n, h); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const char* s) { bytes(s, std::strlen(s) + 1); }
};

std::uint64_t report_hash(const BatchReport& r) {
  Hasher h;
  h.u64(r.items.size());
  for (const core::BatchItem& item : r.items) {
    h.u64(item.record.element.value);
    h.u64(item.window_clean);
    h.u64(item.conflicts.size());
    h.u64(item.met_expectation);
    h.u64(static_cast<std::uint64_t>(item.assessment.summary.verdict));
    h.f64(item.assessment.summary.confidence);
    h.u64(item.assessment.per_element.size());
    for (const core::ElementAssessment& e : item.assessment.per_element) {
      const core::AnalysisOutcome& o = e.outcome;
      h.u64(e.element.value);
      h.u64(static_cast<std::uint64_t>(o.verdict));
      h.u64(o.degenerate);
      h.f64(o.p_value);
      h.f64(o.statistic);
      h.f64(o.effect_kpi_units);
      h.f64(o.fit_r_squared);
      h.u64(o.explanation.iterations_used);
      h.u64(o.explanation.successful_iterations);
      h.str(o.explanation.stop_reason);
    }
    h.u64(item.assessment.control_group.size());
    for (const net::ElementId c : item.assessment.control_group)
      h.u64(c.value);
  }
  for (const std::size_t n :
       {r.improvements, r.degradations, r.no_impacts, r.dirty_windows,
        r.expectation_misses, r.adaptive_stopped_early,
        r.adaptive_iterations_used, r.adaptive_iterations_budget})
    h.u64(n);
  h.u64(r.adaptive_sampling);
  return h.h;
}

// One record per RNC, real shifts on every third and placebos elsewhere,
// spread over time. The generator's windows are copied into a heap store
// and a snapshot of it, so both backends serve the same series.
class DeterminismMatrix : public ::testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    topo_ = std::make_unique<net::Topology>(
        net::build_small_region(net::Region::kWest, 838, 8, 4));
    sim::KpiGenerator gen(*topo_, sim::GeneratorConfig{.seed = 838});
    log_ = std::make_unique<chg::ChangeLog>();
    const auto rncs = topo_->of_kind(net::ElementKind::kRnc);
    for (std::size_t i = 0; i < rncs.size(); ++i) {
      const auto bin = static_cast<std::int64_t>(i) * 2000;
      if (i % 3 == 0) {
        sim::UpstreamEvent ev;
        ev.source = rncs[i];
        ev.start_bin = bin;
        ev.sigma_shift = (i % 6 == 0) ? +1.6 : -1.6;
        gen.add_factor(std::make_shared<sim::NetworkEventFactor>(
            *topo_, std::vector<sim::UpstreamEvent>{ev}));
      }
      chg::ChangeRecord r;
      r.element = rncs[i];
      r.bin = bin;
      r.type = chg::ChangeType::kConfigChange;
      r.expectation = chg::Expectation::kNoImpact;
      r.target_kpi = kpi::KpiId::kVoiceRetainability;
      log_->add(r);
    }

    // Record the span of bins each (element, KPI) is asked for, then store
    // the generator's series over that span.
    std::map<SeriesStore::Key, std::pair<std::int64_t, std::int64_t>> spans;
    const core::SeriesProvider recorder =
        [&](net::ElementId e, kpi::KpiId k, std::int64_t start,
            std::size_t n) {
          const std::int64_t end = start + static_cast<std::int64_t>(n);
          const auto [it, fresh] = spans.try_emplace({e.value, k}, start, end);
          if (!fresh) {
            it->second.first = std::min(it->second.first, start);
            it->second.second = std::max(it->second.second, end);
          }
          return gen.kpi_series(e, k, start, n);
        };
    par::set_threads(1);
    core::assess_change_log(*log_, *topo_, recorder);
    heap_ = std::make_unique<SeriesStore>();
    for (const auto& [key, span] : spans)
      heap_->put(net::ElementId{key.first}, key.second,
                 gen.kpi_series(net::ElementId{key.first}, key.second,
                                span.first,
                                static_cast<std::size_t>(span.second -
                                                         span.first)));

    root_ = fs::temp_directory_path() /
            ("litmus_determinism_matrix_" + std::to_string(::getpid()));
    fs::create_directories(root_);
    const std::string snap = (root_ / "series.litmus-snap").string();
    save_series_snapshot(snap, *heap_, 1, 2, 3);
    mapped_ = MappedStore::open(snap);
  }

  static void TearDownTestSuite() {
    mapped_.reset();
    fs::remove_all(root_);
    heap_.reset();
    log_.reset();
    topo_.reset();
  }

  void TearDown() override {
    par::set_threads(0);
    ts::simd::set_active_tier(tier_before_);
  }

  const ts::simd::Tier tier_before_ = ts::simd::active_tier();

  inline static std::unique_ptr<net::Topology> topo_;
  inline static std::unique_ptr<chg::ChangeLog> log_;
  inline static std::unique_ptr<SeriesStore> heap_;
  inline static std::unique_ptr<MappedStore> mapped_;
  inline static fs::path root_;
};

TEST_P(DeterminismMatrix, OneReportHashAcrossThreadsSimdAndStore) {
  ASSERT_NE(mapped_, nullptr);
  const bool adaptive = GetParam();
  core::BatchConfig cfg;
  cfg.assessment.regression.adaptive_sampling = adaptive;
  const ts::simd::Tier native = ts::simd::detected_tier();

  std::map<std::uint64_t, std::string> cells;  // hash -> the cells giving it
  BatchReport report;
  for (const std::size_t threads : {1u, 4u})
    for (const ts::simd::Tier tier : {ts::simd::Tier::kScalar, native})
      for (const bool use_mapped : {false, true}) {
        par::set_threads(threads);
        ASSERT_TRUE(ts::simd::set_active_tier(tier));
        report = core::assess_change_log(
            *log_, *topo_,
            use_mapped ? mapped_->provider() : heap_->provider(), cfg);
        std::ostringstream cell;
        cell << " [" << threads << " threads, " << ts::simd::tier_name(tier)
             << ", " << (use_mapped ? "mapped" : "heap") << "]";
        cells[report_hash(report)] += cell.str();
      }
  EXPECT_EQ(cells.size(), 1u) << [&] {
    std::ostringstream os;
    for (const auto& [hash, where] : cells)
      os << std::hex << hash << std::dec << ":" << where << "\n";
    return os.str();
  }();
  EXPECT_EQ(report.adaptive_sampling, adaptive);
  EXPECT_GT(report.improvements + report.degradations, 0u);

  if (adaptive) {
    EXPECT_GT(report.adaptive_stopped_early, 0u);
  } else {
    // Adaptive off is the default config's code path, bit for bit.
    EXPECT_EQ(report_hash(core::assess_change_log(*log_, *topo_,
                                                  heap_->provider())),
              cells.begin()->first);
    EXPECT_EQ(report.adaptive_stopped_early, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AdaptiveModes, DeterminismMatrix, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "on" : "off";
                         });

}  // namespace
}  // namespace litmus::io

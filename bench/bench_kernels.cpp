// Microbenchmarks for the batch-sweep hot-path kernels: the columnar
// design-matrix fill, the blocked Gram panel build, the per-iteration
// forecast, the per-bin median's sorting network, the shared panel cache,
// and the multi-element sweep those kernels compose into.
//
// Where bench_perf.cpp tracks whole-assessment latency, this family
// isolates the layers the panel cache and columnar overhaul touch, so a
// regression pinpoints which kernel moved. BM_MultiElementSweep sets one
// multi-element assessment's three paths side by side: each element
// rebuilding its panel, finding it in the cache, and reading the
// assessment's shared design block; same results in all three
// (bit-identical — tests/litmus/panel_cache_test.cpp and
// tests/litmus/shared_design_test.cpp).
//
// Results go to BENCH_kernels.json (bench_main.h). CI checks three floors
// on it (tools/check_bench_regression.py): the native tier beats the
// scalar kernels on BM_GramAccumulate/64, BM_Predict/336 and
// BM_ForecastSort/25. The panel cache's end-to-end effect is bounded by
// bench/e2e's `ffa` workload.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "eval/group_sim.h"
#include "litmus/assessor.h"
#include "litmus/panel_cache.h"
#include "litmus/spatial_regression.h"
#include "tsmath/gram.h"
#include "tsmath/linreg.h"
#include "tsmath/matrix.h"
#include "tsmath/random.h"
#include "tsmath/ranks.h"
#include "tsmath/simd/dispatch.h"
#include "tsmath/simd/kernels.h"
#include "tsmath/timeseries.h"

namespace {

using namespace litmus;

constexpr std::size_t kRows = 14 * 24;  // 14-day hourly before window

std::vector<ts::TimeSeries> make_controls(std::size_t n) {
  ts::Rng rng(41);
  std::vector<ts::TimeSeries> out;
  out.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<double> v(kRows + 48);  // some slack on both sides
    for (auto& x : v) x = rng.normal();
    out.emplace_back(-24, std::move(v));
  }
  return out;
}

ts::Matrix fill_design(const std::vector<ts::TimeSeries>& controls) {
  ts::Matrix x(kRows, controls.size());
  for (std::size_t c = 0; c < controls.size(); ++c)
    controls[c].copy_range_into(0, x.column(c));
  return x;
}

// Forces the kernel tier for one benchmark's scope: 0 = scalar, 1 = the
// best tier the host supports. The scalar/native row pair is the A/B
// measurement the SIMD layer is judged by (a floor in
// tools/check_bench_regression.py); results are bit-identical either
// way, so the pair times the same work.
class TierGuard {
 public:
  explicit TierGuard(std::int64_t native)
      : prev_(ts::simd::active_tier()) {
    ts::simd::set_active_tier(native != 0 ? ts::simd::detected_tier()
                                          : ts::simd::Tier::kScalar);
  }
  ~TierGuard() { ts::simd::set_active_tier(prev_); }

 private:
  ts::simd::Tier prev_;
};

// Columnar design fill: one copy_range_into per control column.
void BM_DesignFill(benchmark::State& state) {
  const auto controls = make_controls(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto x = fill_design(controls);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kRows * controls.size()));
}
BENCHMARK(BM_DesignFill)->Arg(16)->Arg(64);

// Cold Gram build: the O(m·N²) blocked accumulation the cache amortizes.
// Second arg picks the kernel tier (0 scalar, 1 native).
void BM_GramBuildCold(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto x =
      fill_design(make_controls(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto panel = ts::GramPanel::build(x);
    benchmark::DoNotOptimize(panel);
  }
}
BENCHMARK(BM_GramBuildCold)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// The raw augmented-Gram accumulation kernel on pre-packed columns — the
// tightest loop of the panel build and the row the >=1.5x native-vs-
// scalar acceptance floor is measured on.
void BM_GramAccumulate(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto cols = static_cast<std::size_t>(state.range(0));
  ts::Rng rng(17);
  std::vector<double> packed(kRows * cols);
  for (auto& v : packed) v = rng.normal();
  std::vector<double> g((cols + 1) * (cols + 1));
  for (auto _ : state) {
    std::fill(g.begin(), g.end(), 0.0);
    ts::simd::accumulate_gram(packed.data(), kRows, cols, g.data());
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kRows * cols * (cols + 1) / 2));
}
BENCHMARK(BM_GramAccumulate)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// X̃ᵀy bind against a prebuilt panel: missing-scan of y, gather, Σy/yᵀy,
// and one dot per column through the dispatched kernels.
void BM_GramBind(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto x =
      fill_design(make_controls(static_cast<std::size_t>(state.range(0))));
  const auto panel = ts::GramPanel::build(x);
  ts::Rng rng(23);
  std::vector<double> y(kRows);
  for (auto& v : y) v = rng.normal();
  ts::GramSystem sys;
  for (auto _ : state) {
    const bool ok = sys.bind(panel, y, /*with_intercept=*/true);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(sys);
  }
}
BENCHMARK(BM_GramBind)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// Fligner-Policello placements over a tie-heavy sample pair, as the
// robust rank-order test runs them (both directions in one call). Sized
// under the counting-kernel crossover so the SIMD compare-and-count
// sweep is what gets timed.
void BM_Placements(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(0));
  ts::Rng rng(29);
  std::vector<double> xs(n), ys(n);
  for (auto& v : xs) v = std::round(rng.normal() * 8.0) / 8.0;
  for (auto& v : ys) v = std::round(rng.normal() * 8.0) / 8.0;
  std::vector<double> u_x(n), u_y(n);
  for (auto _ : state) {
    ts::placement_pair_into(xs, ys, u_x, u_y);
    benchmark::DoNotOptimize(u_x.data());
    benchmark::DoNotOptimize(u_y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2 * n));
}
BENCHMARK(BM_Placements)->Args({168, 0})->Args({168, 1});

// One sampling iteration's forecast: every design row from 42 of 60
// controls (k = floor(0.7 * 60), the paper shape) through
// LinearModel::predict_columns_into and the dispatched predict kernel.
// First arg is the row count (48: a corpus before window; 336: 14 days
// hourly); second picks the tier. CI gates /336/1 against /336/0.
void BM_Predict(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kControls = 60;
  constexpr std::size_t kSelected = 42;
  ts::Rng rng(37);
  ts::Matrix x(rows, kControls);
  for (std::size_t c = 0; c < kControls; ++c)
    for (auto& v : x.column(c)) v = rng.normal();
  const std::vector<std::size_t> cols =
      ts::sample_without_replacement(rng, kControls, kSelected);
  ts::LinearModel model;
  model.intercept = rng.normal();
  for (std::size_t i = 0; i < kSelected; ++i)
    model.coefficients.push_back(rng.normal());
  std::vector<double> out(rows);
  for (auto _ : state) {
    model.predict_columns_into(x, cols, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows * kSelected));
}
BENCHMARK(BM_Predict)
    ->Args({48, 0})
    ->Args({48, 1})
    ->Args({336, 0})
    ->Args({336, 1});

// The per-bin median's sort as forecast() runs it: a [row][bin] forecast
// store of 672 bins (14+14 days hourly) sorted 8 bins at a time down its
// rows by the dispatched network, NaN cells included. First arg is the
// row count (the default budget of 25 and the adaptive budget of 100);
// second picks the tier. Items are bins. CI gates /25/1 against /25/0.
void BM_ForecastSort(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBins = 2 * kRows;
  ts::Rng rng(43);
  std::vector<double> store(rows * kBins);
  for (auto& v : store)
    v = rng.uniform(0.0, 1.0) < 0.01 ? ts::kMissing : rng.normal();
  std::vector<ts::simd::SortPair> network;
  ts::simd::sort_network(rows, network);
  std::vector<double> sorted(rows * 8);
  std::size_t counts[8];
  for (auto _ : state) {
    for (std::size_t group = 0; group < kBins; group += 8)
      ts::simd::sort_lanes(store.data() + group, kBins, rows, network,
                           sorted.data(), counts);
    benchmark::DoNotOptimize(sorted.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBins));
}
BENCHMARK(BM_ForecastSort)
    ->Args({25, 0})
    ->Args({25, 1})
    ->Args({100, 0})
    ->Args({100, 1});

// Warm-cache path as the analyzer runs it: fingerprint the design, then
// get_or_build on a cache that already holds the panel.
void BM_PanelCacheHit(benchmark::State& state) {
  const auto x =
      fill_design(make_controls(static_cast<std::size_t>(state.range(0))));
  core::PanelCache cache;
  (void)cache.get_or_build(core::fingerprint_design(x),
                           [&] { return ts::GramPanel::build(x); });
  for (auto _ : state) {
    auto panel = cache.get_or_build(core::fingerprint_design(x),
                                    [&] { return ts::GramPanel::build(x); });
    benchmark::DoNotOptimize(panel);
  }
  if (cache.stats().misses != 1) state.SkipWithError("cache did not stay warm");
}
BENCHMARK(BM_PanelCacheHit)->Arg(16)->Arg(64);

// End-to-end multi-element sweep (8 elements sharing one 64-control
// group): one assess per element with the panel cache cleared before every
// element (Arg 0) or kept (Arg 1), and the 8 through one
// Assessor::assess_windows, whose elements share one design block — its
// designs, panel, subsets and Cholesky factors (Arg 2). Items/s counts
// element assessments. No floor reads these rows: bench/e2e's `ffa`
// workload owns this stage (DESIGN.md §17).
void BM_MultiElementSweep(benchmark::State& state) {
  eval::EpisodeSpec spec;
  spec.n_study = 8;
  spec.n_control = 64;
  spec.before_bins = 14 * 24;
  spec.after_bins = 14 * 24;
  spec.true_sigma = 1.5;
  spec.seed = 97;
  const auto episode = eval::simulate_episode(spec);
  const core::RobustSpatialRegression alg;
  const net::Topology topo;
  const core::Assessor assessor(
      topo, [](net::ElementId, kpi::KpiId, std::int64_t start,
               std::size_t n) { return ts::TimeSeries(start, n, 60); });
  std::vector<net::ElementId> study, controls;
  for (std::uint32_t i = 0; i < spec.n_study; ++i)
    study.push_back(net::ElementId{1 + i});
  for (std::uint32_t i = 0; i < spec.n_control; ++i)
    controls.push_back(net::ElementId{100 + i});

  core::PanelCache& cache = core::PanelCache::global();
  cache.clear();
  for (auto _ : state) {
    if (state.range(0) == 2) {
      auto out = assessor.assess_windows(study, controls,
                                         episode.study_windows,
                                         kpi::KpiId::kVoiceRetainability, 0);
      benchmark::DoNotOptimize(out);
      continue;
    }
    for (const auto& w : episode.study_windows) {
      if (state.range(0) == 0) cache.clear();
      auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * episode.study_windows.size()));
  cache.clear();
}
BENCHMARK(BM_MultiElementSweep)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  litmus::obs::RunManifest manifest;
  manifest.tool = "bench_kernels";
  manifest.seed = 97;
  return litmus::bench::run_benchmarks(argc, argv, std::move(manifest));
}

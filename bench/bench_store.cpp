// Mapped-store scale benches: the DESIGN.md §15 path from snapshot bytes
// to batch verdicts. A simkit scale corpus (default 20k NodeBs x 2 KPIs;
// LITMUS_BENCH_STORE_ELEMENTS overrides — the CI workload, the 1M national
// topology is the same code at a bigger number) is generated once per
// process, then:
//
//   BM_MappedOpen          open + full validation (checksum pass) per iter
//   BM_WindowFetchHeap     assessment windows via the heap SeriesStore
//   BM_WindowFetchMapped   the same windows zero-copy off the mapped pages
//   BM_BatchAssess         the whole change log — the elements/s headline
//                          (items_per_second = records assessed/s)
//   BM_BatchAssessAdaptive the same log at 100 iterations, adaptive off/on
//
// CI checks one floor on BENCH_store.json (tools/check_bench_regression.py):
// adaptive sampling must lift batch records/s by 1.5x. The batch driver's
// per-record cost at scale is bounded end to end by bench/e2e's `sweep`
// workload (records_per_s). Results go to BENCH_store.json (bench_main.h).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "changelog/changelog.h"
#include "io/changes.h"
#include "io/mapped_store.h"
#include "io/store.h"
#include "litmus/batch.h"
#include "litmus/control_selection.h"
#include "simkit/scale.h"

namespace {

using namespace litmus;

constexpr const char* kCorpusDir = "bench_store_corpus";

std::size_t corpus_elements() {
  if (const char* env = std::getenv("LITMUS_BENCH_STORE_ELEMENTS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 20'000;
}

const sim::ScaleCorpusConfig& corpus_config() {
  static const sim::ScaleCorpusConfig cfg = [] {
    sim::ScaleCorpusConfig c;
    c.elements = corpus_elements();
    return c;
  }();
  return cfg;
}

std::string corpus_path(const char* file) {
  return std::string(kCorpusDir) + "/" + file;
}

struct Corpus {
  net::Topology topo;
  chg::ChangeLog log;
  std::shared_ptr<io::MappedStore> mapped;
  core::BatchConfig config;  ///< zip-indexed selection, corpus windows
};

const Corpus& corpus() {
  static const Corpus c = [] {
    const sim::ScaleCorpusConfig& cfg = corpus_config();
    const sim::ScaleCorpusReport rep = sim::write_scale_corpus(kCorpusDir, cfg);
    Corpus out;
    {
      std::ifstream in(corpus_path("topology.csv"));
      out.topo = io::load_topology_csv(in);
    }
    {
      std::ifstream in(corpus_path("changes.csv"));
      io::load_changes_csv(in, out.log);
    }
    std::string why;
    out.mapped = io::MappedStore::open(corpus_path("series.litmus-snap"), &why);
    if (!out.mapped || out.mapped->size() != rep.series) {
      std::fprintf(stderr, "bench_store: cannot map corpus snapshot: %s\n",
                   why.c_str());
      std::exit(1);
    }
    out.config.assessment.before_bins = cfg.before_bins;
    out.config.assessment.guard_bins = cfg.guard_bins;
    out.config.assessment.after_bins = cfg.after_bins;
    out.config.predicate =
        core::all_of({core::same_zip(), core::same_technology()});
    out.config.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto& e = t.get(id);
      return static_cast<std::uint64_t>(e.zip.value) * 8 +
             static_cast<std::uint64_t>(e.technology);
    };
    return out;
  }();
  return c;
}

// The heap-materialised twin of the mapped store, for the fetch A/B.
const io::SeriesStore& heap_store() {
  static const io::SeriesStore s = [] {
    io::SeriesStore store;
    for (const io::MappedStore::Entry& e : corpus().mapped->entries())
      store.put(net::ElementId{e.key.first}, e.key.second,
                ts::TimeSeries(e.view.start_bin,
                               std::vector<double>(e.view.values.begin(),
                                                   e.view.values.end()),
                               e.view.bin_minutes));
    return store;
  }();
  return s;
}

// Full open + validation per iteration: header checks, the FNV pass over
// every payload byte, record-index build. Warm after the first iteration,
// so this times validation throughput, not disk.
void BM_MappedOpen(benchmark::State& state) {
  corpus();  // ensure the snapshot exists
  const std::string path = corpus_path("series.litmus-snap");
  std::uint64_t series = 0, bytes = 0;
  for (auto _ : state) {
    std::string why;
    auto store = io::MappedStore::open(path, &why);
    if (!store) {
      state.SkipWithError(("open failed: " + why).c_str());
      return;
    }
    series = store->size();
    bytes = store->bytes_mapped();
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * series));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_MappedOpen);

// One assessment window pair (study before + after, target KPI) per change
// record, through a SeriesProvider. The two variants run the identical
// fetch loop; only the provider differs.
void fetch_windows(benchmark::State& state,
                   const core::SeriesProvider& provider) {
  const Corpus& c = corpus();
  const core::AssessmentConfig& a = c.config.assessment;
  const std::int64_t before = static_cast<std::int64_t>(a.before_bins);
  double sink = 0.0;
  for (auto _ : state) {
    for (const chg::ChangeRecord& r : c.log.all()) {
      const ts::TimeSeries sb =
          provider(r.element, r.target_kpi, r.bin - before, a.before_bins);
      const ts::TimeSeries sa = provider(
          r.element, r.target_kpi,
          r.bin + static_cast<std::int64_t>(a.guard_bins), a.after_bins);
      sink += sb.values().empty() ? 0.0 : sb.values().front();
      sink += sa.values().empty() ? 0.0 : sa.values().front();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * c.log.size()));
}

void BM_WindowFetchHeap(benchmark::State& state) {
  corpus();
  fetch_windows(state, heap_store().provider());
}
BENCHMARK(BM_WindowFetchHeap);

void BM_WindowFetchMapped(benchmark::State& state) {
  fetch_windows(state, corpus().mapped->provider());
}
BENCHMARK(BM_WindowFetchMapped);

// The headline: the whole change log off the mapped store.
// items_per_second is change records (= study elements) assessed per
// second.
void BM_BatchAssess(benchmark::State& state) {
  const Corpus& c = corpus();
  const core::SeriesProvider provider = c.mapped->provider();
  std::size_t assessed = 0;
  for (auto _ : state) {
    const core::BatchReport rep =
        core::assess_change_log(c.log, c.topo, provider, c.config);
    assessed = rep.items.size();
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * assessed));
}
BENCHMARK(BM_BatchAssess);

// The adaptive-sampling headline (DESIGN.md §16): the same change log at
// the high-robustness budget of 100 iterations, adaptive off (/0) vs on
// (/1). Most corpus elements are decisively null or decisively shifted
// and stop after ~12 iterations, so records/s multiplies — CI gates the
// /0 vs /1 ratio with a 1.5x floor (machine-independent: both rows come
// from the same process). At the default budget of 25 the Gram fast path
// makes iterations cheap enough that early stopping only breaks even;
// the adaptive layer is what makes budgets like 100 affordable at scale.
void BM_BatchAssessAdaptive(benchmark::State& state) {
  const Corpus& c = corpus();
  const core::SeriesProvider provider = c.mapped->provider();
  core::BatchConfig config = c.config;
  config.assessment.regression.n_iterations = 100;
  config.assessment.regression.adaptive_sampling = state.range(0) != 0;
  std::size_t assessed = 0;
  for (auto _ : state) {
    const core::BatchReport rep =
        core::assess_change_log(c.log, c.topo, provider, config);
    assessed = rep.items.size();
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * assessed));
}
BENCHMARK(BM_BatchAssessAdaptive)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  litmus::obs::RunManifest manifest;
  manifest.tool = "bench_store";
  manifest.seed = corpus_config().seed;
  manifest.add_config("elements", std::to_string(corpus_elements()));
  manifest.add_config("kpis", std::to_string(corpus_config().kpis.size()));
  return litmus::bench::run_benchmarks(argc, argv, std::move(manifest));
}

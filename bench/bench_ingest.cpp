// Ingest throughput benches: the seed getline/std::string series parser
// versus the mmap chunk-parallel zero-copy fast path (io/ingest.h), plus
// the warm binary-snapshot load that skips parsing entirely.
//
// A synthetic series CSV (default 1M rows; LITMUS_BENCH_INGEST_ROWS
// overrides) is generated once per process into the working directory.
// BM_SeedParse is a frozen, self-contained replica of the seed tree's
// parser (getline + per-field std::string split + std::map accumulate), so
// the reference cannot drift as the live code improves. CI checks two
// floors on BENCH_ingest.json (tools/check_bench_regression.py), both
// rows from this one process:
//
//     BM_SeedParse / BM_IngestParse/1      >= 4   (the parse speedup)
//     BM_SeedParse / BM_SnapshotWarmLoad   >= 10  (the snapshot win)
//
// Results go to BENCH_ingest.json (bench_main.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "io/ingest.h"
#include "io/snapshot.h"
#include "io/store.h"
#include "tsmath/random.h"

namespace {

using namespace litmus;

constexpr const char* kCsvPath = "bench_ingest_series.csv";
constexpr const char* kSnapDir = "bench_ingest_snap";

std::size_t dataset_rows() {
  if (const char* env = std::getenv("LITMUS_BENCH_INGEST_ROWS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 1'000'000;
}

// 250 elements x 2 KPIs x (rows / 500) hourly bins, values jittered around
// a retainability operating point with some missing ("nan") bins — the
// row-per-observation shape production exports have.
void generate_dataset(const std::string& path, std::size_t rows) {
  const std::size_t n_elements = 250;
  const std::size_t n_kpis = 2;
  const std::size_t bins_per_series =
      std::max<std::size_t>(1, rows / (n_elements * n_kpis));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "# element_id, kpi_name, bin, value\n");
  ts::Rng rng(20130209);
  const char* kpis[n_kpis] = {"voice_retainability", "data_retainability"};
  for (std::size_t e = 1; e <= n_elements; ++e) {
    for (std::size_t k = 0; k < n_kpis; ++k) {
      for (std::size_t b = 0; b < bins_per_series; ++b) {
        const std::int64_t bin =
            static_cast<std::int64_t>(b) - 14 * 24;
        if (rng.next_double() < 0.01) {
          std::fprintf(f, "%zu, %s, %lld, nan\n", e, kpis[k],
                       static_cast<long long>(bin));
        } else {
          std::fprintf(f, "%zu, %s, %lld, %.6f\n", e, kpis[k],
                       static_cast<long long>(bin),
                       0.97 + 0.02 * rng.normal());
        }
      }
    }
  }
  std::fclose(f);
}

const std::string& dataset() {
  static const std::string path = [] {
    generate_dataset(kCsvPath, dataset_rows());
    return std::string(kCsvPath);
  }();
  return path;
}

// ---------------------------------------------------------------------------
// Frozen replica of the seed tree's series parser (io/csv.cpp +
// io/store.cpp as of the initial commit). Deliberately NOT the live code:
// the live parser keeps getting faster, and a reference that improves
// alongside the contender would silently relax the floors.
namespace seedref {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (const char c : line) {
    if (c == ',') {
      fields.push_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(trim(cur));
  return fields;
}

std::optional<std::vector<std::string>> read_csv_row(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    return split_csv_line(t);
  }
  return std::nullopt;
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

double parse_double_or_missing(const std::string& s) {
  if (s.empty() || s == "nan" || s == "NaN" || s == "NA")
    return std::numeric_limits<double>::quiet_NaN();
  const auto v = parse_double(s);
  return v ? *v : std::numeric_limits<double>::quiet_NaN();
}

std::optional<std::int64_t> parse_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::size_t load_series_csv(std::istream& in, io::SeriesStore& store) {
  struct Points {
    std::int64_t min_bin = 0;
    std::int64_t max_bin = 0;
    std::vector<std::pair<std::int64_t, double>> values;
  };
  std::map<std::pair<std::uint32_t, kpi::KpiId>, Points> acc;

  std::size_t count = 0;
  while (const auto row = read_csv_row(in)) {
    if (row->size() != 4)
      throw std::runtime_error("series csv: expected 4 fields, got " +
                               std::to_string(row->size()));
    const auto element = parse_int((*row)[0]);
    const auto kpi = kpi::parse_kpi((*row)[1]);
    const auto bin = parse_int((*row)[2]);
    if (!element || *element <= 0 || !kpi || !bin)
      throw std::runtime_error("series csv: malformed row");
    const double value = parse_double_or_missing((*row)[3]);

    auto& p = acc[{static_cast<std::uint32_t>(*element), *kpi}];
    if (p.values.empty()) {
      p.min_bin = p.max_bin = *bin;
    } else {
      p.min_bin = std::min(p.min_bin, *bin);
      p.max_bin = std::max(p.max_bin, *bin);
    }
    p.values.emplace_back(*bin, value);
    ++count;
  }

  for (auto& [key, p] : acc) {
    ts::TimeSeries s(p.min_bin,
                     static_cast<std::size_t>(p.max_bin - p.min_bin + 1), 60);
    for (const auto& [bin, value] : p.values) s.set_bin(bin, value);
    store.put(net::ElementId{key.first}, key.second, std::move(s));
  }
  return count;
}

}  // namespace seedref

// Seed parser replica: the slow row of both ingest floors.
void BM_SeedParse(benchmark::State& state) {
  const std::string& path = dataset();
  std::size_t rows = 0;
  for (auto _ : state) {
    std::ifstream in(path);
    io::SeriesStore store;
    rows = seedref::load_series_csv(in, store);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * std::filesystem::file_size(path)));
}
BENCHMARK(BM_SeedParse);

// Today's serial loader (CsvReader + SeriesAccum) — informational, shows
// how much of the win the shared scalar improvements account for.
void BM_SerialParse(benchmark::State& state) {
  const std::string& path = dataset();
  std::size_t rows = 0;
  for (auto _ : state) {
    std::ifstream in(path);
    io::SeriesStore store;
    rows = io::load_series_csv(in, store);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * std::filesystem::file_size(path)));
}
BENCHMARK(BM_SerialParse);

// Chunked zero-copy parse over the mapped bytes; Arg = forced chunk count
// (1 isolates the single-thread parser win, 4 exercises the chunk merge).
// The buffer is mapped once outside the loop: this benches the parse, not
// page-cache traffic — the seed loader's ifstream reads warm pages too.
void BM_IngestParse(benchmark::State& state) {
  const std::string& path = dataset();
  static const io::InputBuffer& buf = []() -> const io::InputBuffer& {
    static io::InputBuffer b = io::InputBuffer::map_file(dataset());
    return b;
  }();
  io::IngestOptions opts;
  opts.force_chunks = static_cast<std::size_t>(state.range(0));
  std::size_t rows = 0;
  for (auto _ : state) {
    io::SeriesStore store;
    rows = io::load_series_csv_fast(buf.view(), store, opts);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * rows));
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * std::filesystem::file_size(path)));
}
BENCHMARK(BM_IngestParse)->Arg(1)->Arg(4);

// Warm snapshot hit end to end: stat the source, trust the recorded
// fingerprint, map the snapshot and validate its checksum and record
// table. The priming ingest's cold miss writes the snapshot.
void BM_SnapshotWarmLoad(benchmark::State& state) {
  const std::string& path = dataset();
  std::filesystem::create_directories(kSnapDir);
  io::IngestOptions opts;
  opts.snapshot_dir = kSnapDir;
  (void)io::ingest_series_file(path, opts);  // prime the cache
  bool warm = true;
  for (auto _ : state) {
    const io::IngestResult in = io::ingest_series_file(path, opts);
    warm = warm && in.report.from_snapshot;
    benchmark::DoNotOptimize(in.series.size());
  }
  if (!warm) state.SkipWithError("snapshot cache did not stay warm");
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * std::filesystem::file_size(path)));
}
BENCHMARK(BM_SnapshotWarmLoad);

}  // namespace

int main(int argc, char** argv) {
  litmus::obs::RunManifest manifest;
  manifest.tool = "bench_ingest";
  manifest.seed = 20130209;
  manifest.add_config("rows", std::to_string(dataset_rows()));
  return litmus::bench::run_benchmarks(argc, argv, std::move(manifest));
}

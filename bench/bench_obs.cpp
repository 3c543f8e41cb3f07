// Self-overhead benchmark for the observability layer — what does the
// instrumentation itself cost?
//
// BM_AssessObs runs one assessment at the default production shape
// (16 controls, 14-day windows) under four instrumentation levels:
//   Arg(0)  off      — obs disabled, tracer stopped (the production
//                      default; CI gates this mode against the committed
//                      BENCH_obs_baseline.json)
//   Arg(1)  metrics  — counters/gauges/stage histograms on
//   Arg(2)  sampled  — metrics + tracing with 1-in-16 span sampling
//   Arg(3)  full     — metrics + every span recorded to the rings
//
// BM_OlsFit is the CPU-speed calibration primitive; the CI gate compares
// the off-mode/calibration *ratio* so raw machine speed cancels out
// (tools/check_bench_regression.py --key BM_AssessObs/0).
//
// Unless the caller passes its own --benchmark_out, results are written to
// BENCH_obs.json with an embedded provenance manifest.
#include <benchmark/benchmark.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/group_sim.h"
#include "litmus/spatial_regression.h"
#include "obs/http.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "tsmath/linreg.h"
#include "tsmath/random.h"

namespace {

using namespace litmus;

core::ElementWindows make_windows(std::size_t n_controls, std::size_t days) {
  eval::EpisodeSpec spec;
  spec.n_control = n_controls;
  spec.before_bins = days * 24;
  spec.after_bins = days * 24;
  spec.true_sigma = 1.5;
  spec.seed = 97;
  return eval::simulate_episode(spec).study_windows.front();
}

constexpr int kModeOff = 0;
constexpr int kModeMetrics = 1;
constexpr int kModeSampled = 2;
constexpr int kModeFull = 3;

void BM_AssessObs(benchmark::State& state) {
  const auto w = make_windows(16, 14);
  const core::RobustSpatialRegression alg;
  const int mode = static_cast<int>(state.range(0));

  obs::set_enabled(mode >= kModeMetrics);
  if (mode >= kModeSampled) {
    obs::TraceConfig config;
    config.sample_every = mode == kModeSampled ? 16 : 1;
    obs::Tracer::global().start(config);
  }

  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }

  obs::Tracer::global().stop();
  obs::set_enabled(false);
  switch (mode) {
    case kModeOff: state.SetLabel("obs off"); break;
    case kModeMetrics: state.SetLabel("metrics"); break;
    case kModeSampled: state.SetLabel("metrics+trace/16"); break;
    default: state.SetLabel("metrics+trace full"); break;
  }
}
BENCHMARK(BM_AssessObs)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Raw span cost, isolated: open+close one ScopedSpan per iteration under
// each instrumentation level. This is the per-call price every
// instrumented stage pays, independent of assessment work.
void BM_SpanOpenClose(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  obs::set_enabled(mode >= kModeMetrics);
  if (mode >= kModeSampled) {
    obs::TraceConfig config;
    config.sample_every = mode == kModeSampled ? 16 : 1;
    obs::Tracer::global().start(config);
  }
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span");
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().stop();
  obs::set_enabled(false);
}
BENCHMARK(BM_SpanOpenClose)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Cost of the live observability plane on the assessment hot path:
//   Arg(0)  serve off  — no server constructed: the zero-overhead claim
//                        (CI gates this row against the baseline; it must
//                        match BM_AssessObs/1, metrics-only)
//   Arg(1)  serve idle — HTTP server bound and listening, nobody scraping
//   Arg(2)  scraped    — a loopback client scrapes /metrics in a tight
//                        loop for the whole measurement
// The serve path reads atomic counters and takes only the snapshot's own
// stripe locks, so all three rows should be statistically identical.
void BM_AssessServe(benchmark::State& state) {
  const auto w = make_windows(16, 14);
  const core::RobustSpatialRegression alg;
  const int mode = static_cast<int>(state.range(0));

  obs::set_enabled(true);  // serve implies metrics collection
  obs::HttpServer server;
  std::atomic<bool> stop_scraper{false};
  std::thread scraper;
  if (mode >= 1) server.start({});
  if (mode >= 2) {
    const std::string addr = server.address();
    scraper = std::thread([addr, &stop_scraper] {
      const auto colon = addr.rfind(':');
      const int port = std::stoi(addr.substr(colon + 1));
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) continue;
        sockaddr_in sa{};
        sa.sin_family = AF_INET;
        sa.sin_port = htons(static_cast<std::uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) ==
            0) {
          const char req[] = "GET /metrics HTTP/1.1\r\nHost: b\r\n\r\n";
          (void)!::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL);
          char buf[4096];
          while (::recv(fd, buf, sizeof(buf), 0) > 0) {
          }
        }
        ::close(fd);
      }
    });
  }

  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }

  stop_scraper.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) scraper.join();
  server.stop();
  obs::set_enabled(false);
  switch (mode) {
    case 0: state.SetLabel("serve off"); break;
    case 1: state.SetLabel("serve idle"); break;
    default: state.SetLabel("serve + continuous scrape"); break;
  }
}
BENCHMARK(BM_AssessServe)->Arg(0)->Arg(1)->Arg(2);

// Calibration primitive shared with bench_perf: scales with raw CPU
// speed, not with instrumentation changes.
void BM_OlsFit(benchmark::State& state) {
  const std::size_t rows = 336;
  const std::size_t cols = static_cast<std::size_t>(state.range(0));
  ts::Rng rng(5);
  ts::Matrix x(rows, cols);
  std::vector<double> y(rows);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) x(r, c) = rng.normal();
  for (auto& v : y) v = rng.normal();
  for (auto _ : state) {
    auto m = ts::fit_ols(x, y, true);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_OlsFit)->Arg(16);

// Same post-hoc provenance embedding as bench_perf (see the comment
// there): a "manifest" block becomes the first key of the report so the
// regression gate can warn on apples-to-oranges comparisons.
void embed_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;  // bench ran with a different reporter; nothing to do
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t brace = text.find('{');
  if (brace == std::string::npos) return;

  obs::RunManifest manifest;
  manifest.tool = "bench_obs";
  manifest.threads = par::threads();
  manifest.seed = 97;  // EpisodeSpec seed
  manifest.started_at_utc = obs::utc_timestamp_now();
  text.insert(brace + 1, "\n\"manifest\": " + manifest.to_json() + ",");

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot rewrite %s\n", path.c_str());
    return;
  }
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  // The off-vs-on comparison is about per-call overhead, not scheduling;
  // single-threaded keeps the measurement quiet.
  litmus::par::set_threads(1);
  std::vector<char*> args(argv, argv + argc);
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
      out_path = argv[i] + 16;
  std::string out_flag = "--benchmark_out=BENCH_obs.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (out_path.empty()) {
    out_path = "BENCH_obs.json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  embed_manifest(out_path);
  return 0;
}

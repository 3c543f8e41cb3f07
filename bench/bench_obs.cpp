// Self-overhead benchmark for the observability layer — what does the
// instrumentation itself cost?
//
// BM_AssessObs runs one assessment at the default production shape
// (16 controls, 14-day windows) under four instrumentation levels:
//   Arg(0)  off      — obs disabled, tracer stopped (the production
//                      default)
//   Arg(1)  metrics  — counters/gauges/stage histograms on
//   Arg(2)  sampled  — metrics + tracing with 1-in-16 span sampling
//   Arg(3)  full     — metrics + every span recorded to the rings
//
// The rows are compared with each other; no CI gate reads them. What the
// off mode costs a user is bounded end to end by every bench/e2e
// workload's wall time (litmus_cli batch runs with observability off),
// and the events layer's own share by obs.events_overhead_frac.
//
// Results go to BENCH_obs.json (bench_main.h).
#include <benchmark/benchmark.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "bench_main.h"
#include "eval/group_sim.h"
#include "litmus/spatial_regression.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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
//                        (it should match BM_AssessObs/1, metrics-only)
//   Arg(1)  serve idle — HTTP server bound and listening, nobody scraping
//   Arg(2)  scraped    — a loopback client scrapes /metrics in a tight
//                        loop for the whole measurement
// A scrape holds the registry's lock only to list the metrics, then reads
// atomic counters and each histogram under its own stripe locks, so the
// assessment's CPU time should match across the three rows. The scraped
// row's wall time minus its CPU time is what the assessment thread
// still waits for under a scrape (DESIGN.md §14).
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

}  // namespace

int main(int argc, char** argv) {
  litmus::obs::RunManifest manifest;
  manifest.tool = "bench_obs";
  manifest.seed = 97;  // EpisodeSpec seed
  return litmus::bench::run_benchmarks(argc, argv, std::move(manifest));
}

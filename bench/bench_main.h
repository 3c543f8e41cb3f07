// The one main of the google-benchmark programs (bench_perf, bench_kernels,
// bench_ingest, bench_obs, bench_store). Each program fills in what only it
// knows — its tool name, seed and config notes — and hands the manifest to
// run_benchmarks(), which does the rest the same way for all of them:
//
//   * every bench times a serial loop, so the pool is pinned to one thread;
//   * unless the caller passes its own --benchmark_out, results go to
//     BENCH_<name>.json (tool "bench_<name>") in google-benchmark's JSON
//     format;
//   * google-benchmark owns the JSON writer, so the manifest is spliced in
//     afterwards as the report's first key, with the thread count, the
//     SIMD tier detected and dispatched, and the start time filled in.
//     tools/check_bench_regression.py reads its build_flags (opt=on/off).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "parallel/pool.h"
#include "tsmath/simd/dispatch.h"

namespace litmus::bench {

inline int run_benchmarks(int argc, char** argv, obs::RunManifest manifest) {
  par::set_threads(1);
  manifest.threads = par::threads();
  manifest.simd_detected = ts::simd::tier_name(ts::simd::detected_tier());
  manifest.simd_dispatch = ts::simd::tier_name(ts::simd::active_tier());
  manifest.started_at_utc = obs::utc_timestamp_now();

  std::vector<char*> args(argv, argv + argc);
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
      out_path = argv[i] + 16;
  const std::string name = manifest.tool.substr(manifest.tool.find('_') + 1);
  std::string out_flag = "--benchmark_out=BENCH_" + name + ".json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (out_path.empty()) {
    out_path = out_flag.substr(16);
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::ifstream in(out_path);
  if (!in) return 0;  // bench ran with a different reporter; nothing to do
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t brace = text.find('{');
  if (brace == std::string::npos) return 0;
  text.insert(brace + 1, "\n\"manifest\": " + manifest.to_json() + ",");
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot rewrite %s\n", out_path.c_str());
    return 0;
  }
  out << text;
  return 0;
}

}  // namespace litmus::bench

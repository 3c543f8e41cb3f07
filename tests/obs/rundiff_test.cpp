// Tests for cross-run drift comparison: the golden zero-drift case on a
// byte-identical copy, seed/config/input gating, the informational status
// of thread count and wall time, verdict flips, and metric tolerance.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/rundiff.h"

namespace litmus::obs {
namespace {

namespace fs = std::filesystem;

class RunDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("litmus_rundiff_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Writes a minimal but complete run directory.
  std::string make_run(const std::string& name, std::uint64_t seed = 42,
                       std::size_t threads = 1,
                       const std::string& verdict = "improvement",
                       double iterations = 1000, double p50 = 0.9) {
    const fs::path dir = root_ / name;
    fs::create_directories(dir);
    std::ofstream(dir / "run_manifest.json")
        << "{\"schema\":1,\"tool\":\"litmus_cli assess\","
           "\"version\":\"0.4.0\",\"build_flags\":\"obs=on,assert=off\","
           "\"threads\":" << threads << ",\"seed\":" << seed
        << ",\"rng_scheme\":\"counter-fork-v1\","
           "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
           "\"config\":{\"--kpi\":\"voice_retainability\","
           "\"--threads\":\"" << threads << "\"},"
           "\"informational\":[\"--threads\"],"
           "\"inputs\":[{\"path\":\"demo/series.csv\",\"bytes\":10,"
           "\"fnv1a64\":\"00000000000000aa\",\"ok\":true}]}\n";
    std::ofstream(dir / "events.jsonl")
        << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\"}\n"
        << "{\"v\":1,\"seq\":1,\"t_us\":5,\"type\":\"element_assessed\","
           "\"kpi\":\"voice_retainability\",\"element\":10,\"bin\":0,"
           "\"verdict\":\"" << verdict << "\"}\n"
        << "{\"v\":1,\"seq\":2,\"t_us\":9,\"type\":\"run_end\","
           "\"wall_s\":0.5,\"status\":\"ok\"}\n";
    std::ofstream(dir / "metrics.json")
        << "{\"counters\":{\"litmus.iterations\":" << iterations
        << ",\"stage.fit.calls\":123},"
           "\"histograms\":{\"litmus.fit.r_squared\":{\"count\":10,"
           "\"p50\":" << p50 << "}}}\n";
    return dir.string();
  }

  fs::path root_;
};

TEST_F(RunDiffTest, ByteIdenticalCopyReportsZeroDrift) {
  const std::string a = make_run("a");
  const fs::path b = root_ / "b";
  fs::copy(a, b, fs::copy_options::recursive);  // the golden case
  const RunDiffReport report =
      diff_runs(load_run_dir(a), load_run_dir(b.string()));
  EXPECT_FALSE(report.drift);
  EXPECT_EQ(report.verdict_flips, 0u);
  for (const auto& line : report.manifest) EXPECT_FALSE(line.gating);
  const std::string text =
      format_run_diff(report, load_run_dir(a), load_run_dir(b.string()));
  EXPECT_NE(text.find("no drift"), std::string::npos);
}

TEST_F(RunDiffTest, SeedDeltaGates) {
  const RunData a = load_run_dir(make_run("a", /*seed=*/42));
  const RunData b = load_run_dir(make_run("b", /*seed=*/8));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_TRUE(report.drift);
  const std::string text = format_run_diff(report, a, b);
  EXPECT_NE(text.find("seed: 42 -> 8"), std::string::npos);
  EXPECT_NE(text.find("DRIFT"), std::string::npos);

  DiffThresholds ignore;
  ignore.ignore_manifest = true;
  EXPECT_FALSE(diff_runs(a, b, ignore).drift);
}

TEST_F(RunDiffTest, ThreadCountDeltaIsInformationalOnly) {
  const RunData a = load_run_dir(make_run("a", 42, /*threads=*/1));
  const RunData b = load_run_dir(make_run("b", 42, /*threads=*/8));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_FALSE(report.drift);  // determinism contract: threads never gate
  bool mentioned = false;
  for (const auto& line : report.manifest)
    if (line.text.find("threads") != std::string::npos) {
      mentioned = true;
      EXPECT_FALSE(line.gating);
    }
  EXPECT_TRUE(mentioned);
}

TEST_F(RunDiffTest, ServeTrafficAndAddressNeverGate) {
  // Run A never served; run B ran with --serve on an ephemeral port and
  // absorbed scrapes (serve.* counters, scrape-latency histogram). The
  // plane is read-only, so the runs must diff clean.
  const std::string a = make_run("a");
  const fs::path b_dir = root_ / "b";
  fs::copy(a, b_dir, fs::copy_options::recursive);
  std::ofstream(b_dir / "run_manifest.json")
      << "{\"schema\":1,\"tool\":\"litmus_cli assess\","
         "\"version\":\"0.4.0\",\"build_flags\":\"obs=on,assert=off\","
         "\"threads\":1,\"seed\":42,"
         "\"rng_scheme\":\"counter-fork-v1\","
         "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
         "\"config\":{\"--kpi\":\"voice_retainability\","
         "\"--serve\":\"127.0.0.1:0\",\"--ready-stale-ms\":\"500\","
         "\"serve.addr\":\"127.0.0.1:40441\"},"
         "\"informational\":[\"--serve\",\"--ready-stale-ms\","
         "\"serve.addr\"],"
         "\"inputs\":[{\"path\":\"demo/series.csv\",\"bytes\":10,"
         "\"fnv1a64\":\"00000000000000aa\",\"ok\":true}]}\n";
  std::ofstream(b_dir / "metrics.json")
      << "{\"counters\":{\"litmus.iterations\":1000,"
         "\"stage.fit.calls\":123,\"serve.requests\":17,"
         "\"serve.requests.metrics\":9},"
         "\"histograms\":{\"litmus.fit.r_squared\":{\"count\":10,"
         "\"p50\":0.9},\"serve.scrape_us\":{\"count\":9,\"p50\":120}}}\n";

  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b_dir.string());
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_FALSE(report.drift) << format_run_diff(report, ra, rb);
  for (const auto& line : report.metrics)
    if (line.text.find("serve.") != std::string::npos) {
      EXPECT_FALSE(line.gating) << line.text;
    }
  for (const auto& line : report.manifest)
    if (line.text.find("serve") != std::string::npos) {
      EXPECT_FALSE(line.gating) << line.text;
    }
}

TEST_F(RunDiffTest, ConfigKeyIsInformationalWhenEitherManifestListsIt) {
  // Run A predates the "informational" list; run B, on copied inputs and
  // with --explain, lists the keys that cannot change its result. Either
  // manifest listing a key is enough, in either order; a key neither
  // lists gates.
  const auto write_manifest = [](const std::string& dir,
                                 const std::string& topology,
                                 const std::string& extra_config,
                                 const std::string& informational) {
    std::ofstream(fs::path(dir) / "run_manifest.json")
        << "{\"schema\":1,\"tool\":\"litmus_cli assess\","
           "\"version\":\"0.4.0\",\"build_flags\":\"obs=on,assert=off\","
           "\"threads\":1,\"seed\":42,\"rng_scheme\":\"counter-fork-v1\","
           "\"config\":{\"--kpi\":\"voice_retainability\",\"--topology\":\""
        << topology << "\"" << extra_config << "},"
        << informational
        << "\"inputs\":[{\"path\":\"demo/series.csv\",\"bytes\":10,"
           "\"fnv1a64\":\"00000000000000aa\",\"ok\":true}]}\n";
  };
  const std::string a = make_run("a");
  const std::string b = make_run("b");
  write_manifest(a, "demoA/topology.csv", "", "");
  write_manifest(b, "demoB/topology.csv", ",\"--explain\":\"1\"",
                 "\"informational\":[\"--topology\",\"--explain\"],");

  for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
    const RunData rx = load_run_dir(x);
    const RunData ry = load_run_dir(y);
    const RunDiffReport report = diff_runs(rx, ry);
    EXPECT_FALSE(report.drift) << format_run_diff(report, rx, ry);
    EXPECT_EQ(report.manifest.size(), 2u) << format_run_diff(report, rx, ry);
  }

  write_manifest(b, "demoB/topology.csv", ",\"--explain\":\"1\"", "");
  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b);
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_TRUE(report.drift);
  for (const auto& line : report.manifest) EXPECT_TRUE(line.gating);
}

TEST_F(RunDiffTest, PoolHistogramsNeverGate) {
  // Two runs that differ only in the worker pool's task wait/run
  // histograms — values set by thread scheduling, not by what was
  // computed — must diff clean.
  const std::string a = make_run("a");
  const fs::path b_dir = root_ / "b";
  fs::copy(a, b_dir, fs::copy_options::recursive);
  const auto write_metrics = [](const fs::path& dir, double wait_p50,
                                double run_p50) {
    std::ofstream(dir / "metrics.json")
        << "{\"counters\":{\"litmus.iterations\":1000,"
           "\"stage.fit.calls\":123},"
           "\"histograms\":{\"litmus.fit.r_squared\":{\"count\":10,"
           "\"p50\":0.9},\"pool.task_wait_us\":{\"count\":40,\"p50\":"
        << wait_p50 << "},\"pool.task_run_us\":{\"count\":40,\"p50\":"
        << run_p50 << "}}}\n";
  };
  write_metrics(a, 3.625, 120);
  write_metrics(b_dir, 608, 95);

  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b_dir.string());
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_FALSE(report.drift) << format_run_diff(report, ra, rb);
  EXPECT_TRUE(report.metrics.empty()) << format_run_diff(report, ra, rb);
}

TEST_F(RunDiffTest, PerWorkerCountersNeverGate) {
  // Older releases counted sampling iterations per pool worker. How work
  // split across workers is scheduling, not a result, so a run carrying
  // such counters diffs clean against one without them.
  const std::string a = make_run("a");
  const fs::path b_dir = root_ / "b";
  fs::copy(a, b_dir, fs::copy_options::recursive);
  std::ofstream(fs::path(a) / "metrics.json")
      << "{\"counters\":{\"litmus.iterations\":1000,"
         "\"litmus.worker.0.iterations\":600,"
         "\"litmus.worker.3.iterations\":400}}\n";
  std::ofstream(b_dir / "metrics.json")
      << "{\"counters\":{\"litmus.iterations\":1000}}\n";

  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b_dir.string());
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_FALSE(report.drift) << format_run_diff(report, ra, rb);
  EXPECT_TRUE(report.metrics.empty()) << format_run_diff(report, ra, rb);
}

TEST_F(RunDiffTest, VerdictFlipGatesAndMaxFlipsRaisesTheBar) {
  const RunData a = load_run_dir(make_run("a", 42, 1, "improvement"));
  const RunData b = load_run_dir(make_run("b", 42, 1, "degradation"));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_TRUE(report.drift);
  EXPECT_EQ(report.verdict_flips, 1u);
  EXPECT_EQ(report.verdicts_compared, 1u);

  DiffThresholds lenient;
  lenient.max_verdict_flips = 1;
  EXPECT_FALSE(diff_runs(a, b, lenient).drift);
}

TEST_F(RunDiffTest, DeterministicCounterDeltaGatesExactly) {
  const RunData a = load_run_dir(make_run("a", 42, 1, "improvement", 1000));
  const RunData b = load_run_dir(make_run("b", 42, 1, "improvement", 1001));
  EXPECT_TRUE(diff_runs(a, b).drift);  // deterministic counters: exact
}

TEST_F(RunDiffTest, HistogramDriftRespectsRelativeTolerance) {
  const RunData a =
      load_run_dir(make_run("a", 42, 1, "improvement", 1000, /*p50=*/0.90));
  const RunData b =
      load_run_dir(make_run("b", 42, 1, "improvement", 1000, /*p50=*/0.99));
  EXPECT_FALSE(diff_runs(a, b).drift);  // 10% < default 25% tolerance

  DiffThresholds tight;
  tight.metric_rel_tolerance = 0.05;
  EXPECT_TRUE(diff_runs(a, b, tight).drift);
}

TEST_F(RunDiffTest, LoadRejectsRunsWithUnparsableEventLines) {
  const std::string a = make_run("a");
  std::ofstream(fs::path(a) / "events.jsonl", std::ios::app)
      << "{\"v\":1,\"seq\":3,truncated\n";
  EXPECT_THROW(load_run_dir(a), std::runtime_error);
}

TEST_F(RunDiffTest, LoadRequiresManifestAndEvents) {
  const fs::path dir = root_ / "empty";
  fs::create_directories(dir);
  EXPECT_THROW(load_run_dir(dir.string()), std::runtime_error);
}

/// A run dir with explicit adaptive-sampling config flags and metrics, as
/// `litmus_cli ... --adaptive-sampling on` records them.
std::string make_adaptive_run(const fs::path& root, const std::string& name,
                              const std::string& adaptive,
                              double iterations, double rank_calls,
                              double stopped_early) {
  const fs::path dir = root / name;
  fs::create_directories(dir);
  std::ofstream(dir / "run_manifest.json")
      << "{\"schema\":1,\"tool\":\"litmus_cli assess\","
         "\"version\":\"0.4.0\",\"build_flags\":\"obs=on,assert=off\","
         "\"threads\":1,\"seed\":42,"
         "\"rng_scheme\":\"counter-fork-v1\","
         "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
         "\"config\":{\"--kpi\":\"voice_retainability\","
         "\"--adaptive-sampling\":\"" << adaptive << "\","
         "\"--min-iterations\":\"8\",\"--stability-rounds\":\"2\"},"
         "\"inputs\":[{\"path\":\"demo/series.csv\",\"bytes\":10,"
         "\"fnv1a64\":\"00000000000000aa\",\"ok\":true}]}\n";
  std::ofstream(dir / "events.jsonl")
      << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\"}\n"
      << "{\"v\":1,\"seq\":1,\"t_us\":5,\"type\":\"element_assessed\","
         "\"kpi\":\"voice_retainability\",\"element\":10,\"bin\":0,"
         "\"verdict\":\"improvement\"}\n"
      << "{\"v\":1,\"seq\":2,\"t_us\":9,\"type\":\"run_end\","
         "\"wall_s\":0.5,\"status\":\"ok\"}\n";
  std::ofstream metrics(dir / "metrics.json");
  metrics << "{\"counters\":{\"litmus.iterations\":" << iterations
          << ",\"rank_test.fp.calls\":" << rank_calls;
  if (adaptive == "on")
    metrics << ",\"litmus.adaptive.stopped_early\":" << stopped_early
            << ",\"litmus.adaptive.iterations_saved\":13";
  metrics << "},\"histograms\":{\"litmus.fit.r_squared\":{\"count\":10,"
             "\"p50\":0.9}}}\n";
  return dir.string();
}

TEST_F(RunDiffTest, AdaptiveConfigGatesAndVolumeMetricsTurnInformational) {
  // Adaptive-off vs adaptive-on: the config flag gates (the runs are not
  // interchangeable), but the volume-of-computation metrics — iteration
  // counts, fit telemetry, rank-test call counts — differ by construction
  // and must not gate; the verdict set carries the signal.
  const RunData a = load_run_dir(
      make_adaptive_run(root_, "a", "off", 1000, 40, 0));
  const RunData b = load_run_dir(
      make_adaptive_run(root_, "b", "on", 600, 130, 25));
  const RunDiffReport gated = diff_runs(a, b);
  EXPECT_TRUE(gated.drift);
  bool config_gates = false;
  for (const auto& line : gated.manifest)
    if (line.text.find("--adaptive-sampling") != std::string::npos)
      config_gates = line.gating;
  EXPECT_TRUE(config_gates);

  DiffThresholds ignore;
  ignore.ignore_manifest = true;
  const RunDiffReport report = diff_runs(a, b, ignore);
  EXPECT_FALSE(report.drift) << format_run_diff(report, a, b);
  EXPECT_EQ(report.verdict_flips, 0u);
  for (const auto& line : report.metrics) {
    EXPECT_FALSE(line.gating) << line.text;
    if (line.text.find("litmus.iterations") != std::string::npos ||
        line.text.find("rank_test.") != std::string::npos) {
      EXPECT_NE(line.text.find("informational"), std::string::npos)
          << line.text;
    }
  }
}

TEST_F(RunDiffTest, AdaptiveDiagnosticsNeverGate) {
  // Same adaptive config, different budget-spend diagnostics (e.g. two
  // code versions stopping at different checkpoints): litmus.adaptive.*
  // describes how the budget was spent, never gates.
  const RunData a = load_run_dir(
      make_adaptive_run(root_, "a", "on", 600, 130, 25));
  const RunData b = load_run_dir(
      make_adaptive_run(root_, "b", "on", 600, 130, 20));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_FALSE(report.drift) << format_run_diff(report, a, b);
  bool mentioned = false;
  for (const auto& line : report.metrics)
    if (line.text.find("litmus.adaptive.") != std::string::npos) {
      mentioned = true;
      EXPECT_FALSE(line.gating) << line.text;
    }
  EXPECT_TRUE(mentioned);
}

TEST_F(RunDiffTest, SameAdaptiveConfigKeepsIterationVolumeGating) {
  // Two runs under the SAME adaptive config are deterministic, so an
  // iteration-count delta is real drift, exactly as adaptive-off.
  const RunData a = load_run_dir(
      make_adaptive_run(root_, "a", "on", 600, 130, 25));
  const RunData b = load_run_dir(
      make_adaptive_run(root_, "b", "on", 601, 130, 25));
  EXPECT_TRUE(diff_runs(a, b).drift);
}

}  // namespace
}  // namespace litmus::obs

// bench_e2e — the repository's end-to-end benchmark driver.
//
//   bench_e2e --workload sweep|sweep-adaptive|national|ffa
//             [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 (the default) times a workload the way a user runs it: every
// repetition is a fresh child process (`litmus_cli batch` for the batch
// workloads, this binary's own FFA campaign for `ffa`), one at a time in a
// closed loop, for S seconds after one untimed warm-up. --trace 1 replays
// the workload in this process with a span around every call into a
// layer's public API, and reports per-layer metrics, a self-time table
// and a Chrome trace. Both modes check the outputs and print, as the last
// line, {"correct", "attempted", "failed", "metrics"}.
//
// Inputs come from sim::write_scale_corpus (the `litmus_cli gen-corpus`
// generator), seeded by --seed and cached next to this binary; every run
// also appends its result, with the host it ran on, to results.jsonl
// there. README.md in this directory explains the workloads and metrics.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "changelog/changelog.h"
#include "io/changes.h"
#include "io/mapped_store.h"
#include "io/store.h"
#include "litmus/batch.h"
#include "litmus/report.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "parallel/pool.h"
#include "simkit/scale.h"
#include "tsmath/rank_tests.h"
#include "tsmath/simd/dispatch.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace litmus;

constexpr std::uint64_t kDefaultSeed = 20260808;
constexpr double kDefaultSeconds = 20.0;
/// Timed repetitions a run makes even when --seconds is too short for them.
constexpr std::size_t kMinReps = 3;
/// No new repetition starts after this long, whatever --seconds says.
constexpr double kMaxLoopSeconds = 120.0;
/// Study elements in the serial per-element regression sample (--trace 1).
constexpr std::size_t kSampleElements = 500;
/// Correctness guard: a larger share of verdicts disagreeing with the
/// corpus ground truth means the assessment itself broke (every workload
/// measures 0.5-11% on every seed tried).
constexpr double kMaxMissFrac = 0.2;

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  bool ffa;  ///< in-process Assessor campaign instead of `litmus_cli batch`
  std::size_t elements;
  std::size_t cluster_size;
  std::size_t change_stride;
  std::size_t before_bins;
  std::size_t after_bins;
  std::size_t iterations;
  bool adaptive;
};

// Sizes keep one run (corpus, warm-up and --seconds of repetitions) under
// a minute on a 4-core host; README.md gives the reason for each.
constexpr Workload kWorkloads[] = {
    {"sweep", false, 50'000, 40, 2, 48, 24, 25, false},
    {"sweep-adaptive", false, 50'000, 40, 2, 48, 24, 100, true},
    {"national", false, 250'000, 40, 8, 48, 24, 25, false},
    {"ffa", true, 10'000, 80, 4, 336, 336, 25, false},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// ---- small utilities ----------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// User plus system CPU seconds of this process, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

std::uint64_t hash_text(const std::string& s) {
  return obs::fnv1a64(s.data(), s.size());
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile: for p = 0.99 over 1,000 samples, 10 lie above.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

/// Quartiles by Python's statistics.quantiles(n=4) ("exclusive" method),
/// so compare.py and this driver read the same numbers.
Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  q.median = median(v);
  if (v.size() < 2) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long long>(v.size());
  const auto cut = [&](long long i) {
    const long long m = ld + 1;
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

// ---- corpus -------------------------------------------------------------------

struct Corpus {
  fs::path dir;
  std::size_t records = 0;
  double generated_s = 0.0;  ///< 0 when served from the cache

  std::string topology() const { return (dir / "topology.csv").string(); }
  std::string snapshot() const { return (dir / "series.litmus-snap").string(); }
  std::string changes() const { return (dir / "changes.csv").string(); }
  /// The change log's header line alone: `litmus_cli batch` on it does all
  /// of a run's set-up and assesses nothing.
  std::string changes_header() const {
    return (dir / "changes-header.csv").string();
  }
};

sim::ScaleCorpusConfig corpus_config(const Workload& w, std::uint64_t seed) {
  sim::ScaleCorpusConfig c;
  c.elements = w.elements;
  c.cluster_size = w.cluster_size;
  c.change_stride = w.change_stride;
  c.before_bins = w.before_bins;
  c.after_bins = w.after_bins;
  c.seed = seed;
  return c;
}

/// The corpus for (workload shape, seed). One corpus per shape is kept:
/// a new seed replaces the old one, so the cache never outgrows the four
/// workloads. Generation goes to a temporary directory renamed into place,
/// so an interrupted run never leaves a half-written corpus behind.
Corpus prepare_corpus(const fs::path& work, const Workload& w,
                      std::uint64_t seed) {
  Corpus c;
  c.dir = work / ("corpus-" + std::to_string(w.elements) + "-" +
                  std::to_string(w.cluster_size) + "-" +
                  std::to_string(w.change_stride) + "-" +
                  std::to_string(w.before_bins) + "-" +
                  std::to_string(w.after_bins));
  const fs::path stamp = c.dir / "corpus.seed";
  {
    std::ifstream in(stamp);
    std::uint64_t cached_seed = 0;
    if (in >> cached_seed >> c.records && cached_seed == seed) return c;
  }
  const fs::path tmp = c.dir.string() + ".tmp";
  fs::remove_all(c.dir);
  fs::remove_all(tmp);
  const std::int64_t t0 = now_ns();
  const sim::ScaleCorpusReport rep =
      sim::write_scale_corpus(tmp.string(), corpus_config(w, seed));
  c.generated_s = seconds_between(t0, now_ns());
  c.records = rep.changes;
  {
    std::ifstream full(tmp / "changes.csv");
    std::string header;
    std::getline(full, header);
    std::ofstream(tmp / "changes-header.csv") << header << "\n";
    std::ofstream(tmp / "corpus.seed") << seed << " " << c.records << "\n";
  }
  fs::rename(tmp, c.dir);
  // Write the corpus back now, not while the timed repetitions run.
  ::sync();
  return c;
}

// ---- child processes -----------------------------------------------------------

struct ChildRun {
  bool ok = false;  ///< exited with status 0
  std::int64_t spawn_ns = 0;
  double wall_s = 0.0;   ///< spawn to reaped exit
  double rss_mib = 0.0;  ///< ru_maxrss from wait4
  std::string out;       ///< captured stdout
};

/// Runs argv to completion with stdout and stderr in files under `work`.
/// Always reaps the child before returning.
ChildRun run_child(const std::vector<std::string>& argv, const fs::path& work) {
  const std::string out_path = (work / "child.out").string();
  const std::string err_path = (work / "child.err").string();
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun r;
  pid_t pid = 0;
  r.spawn_ns = now_ns();
  const int rc =
      posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0)
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR)
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
  }
  r.wall_s = seconds_between(r.spawn_ns, now_ns());
  r.rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  r.out = read_file(out_path);
  if (!r.ok)
    std::fprintf(stderr, "bench_e2e: %s failed (status %d):\n%s\n",
                 argv[0].c_str(), status, read_file(err_path).c_str());
  return r;
}

/// T: the worker count of every run, never more than the host's cores.
std::size_t bench_threads() {
  return std::min<std::size_t>(4, par::hardware_threads());
}

std::vector<std::string> cli_batch_args(const fs::path& cli, const Workload& w,
                                        const Corpus& c, bool header_only) {
  return {cli.string(),
          "batch",
          "--topology",
          c.topology(),
          "--series-snap",
          c.snapshot(),
          "--changes",
          header_only ? c.changes_header() : c.changes(),
          "--select",
          "zip",
          "--before-bins",
          std::to_string(w.before_bins),
          "--after-bins",
          std::to_string(w.after_bins),
          "--iterations",
          std::to_string(w.iterations),
          "--adaptive-sampling",
          w.adaptive ? "on" : "off",
          "--threads",
          std::to_string(bench_threads())};
}

/// What a batch report says about itself.
struct ReportCheck {
  bool ok = false;
  std::string why;
  std::uint64_t hash = 0;  ///< FNV-1a of the report text
  std::size_t misses = 0;  ///< "expectation miss(es)" in the summary
};

/// Finds the batch report in `out` (a CLI's stdout or the library's
/// format_batch_report) and checks its shape: a header naming `records`
/// changes, one row per change and a summary whose verdict counts add up.
ReportCheck check_batch_report(const std::string& out, std::size_t records) {
  ReportCheck c;
  const std::size_t at = out.find("=== change-log assessment: ");
  if (at == std::string::npos) {
    c.why = "no batch report in the output";
    return c;
  }
  const std::string body = out.substr(at);
  c.hash = hash_text(body);
  std::istringstream in(body);
  std::string line;
  std::size_t rows = 0, header_n = 0, improvements = 0, degradations = 0,
              no_impacts = 0;
  bool summary = false;
  std::getline(in, line);
  std::sscanf(line.c_str(), "=== change-log assessment: %zu", &header_n);
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] >= '0' && line[0] <= '9') ++rows;
    if (std::sscanf(line.c_str(),
                    "summary: %zu improvement(s), %zu degradation(s), %zu "
                    "no-impact; %zu expectation miss(es)",
                    &improvements, &degradations, &no_impacts,
                    &c.misses) == 4)
      summary = true;
  }
  if (header_n != records || rows != records)
    c.why = "report lists " + std::to_string(rows) + " of " +
            std::to_string(records) + " changes";
  else if (!summary)
    c.why = "report has no summary line";
  else if (improvements + degradations + no_impacts != records)
    c.why = "summary verdict counts do not add up to the change count";
  else
    c.ok = true;
  return c;
}

// ---- spans ------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index into Tracer::spans(); -1 at top level
  std::int32_t tid;
};

std::int32_t thread_index() {
  static std::atomic<std::int32_t> next{0};
  thread_local const std::int32_t id = next.fetch_add(1);
  return id;
}

/// Spans of one traced run, kept in memory until the run ends. open/close
/// are for the driving thread; pool threads fill Span slots of their own
/// and the driver appends them once their parallel phase has joined.
class Tracer {
 public:
  std::int32_t open(const char* name) {
    spans_.push_back({name, now_ns(), 0, current_, thread_index()});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void append(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// One span around a call on the driving thread; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const noexcept { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

double span_s(const Span& s) { return seconds_between(s.start_ns, s.end_ns); }

std::vector<double> durations_s(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (std::strcmp(s.name, name) == 0) out.push_back(span_s(s));
  return out;
}

/// Each span's duration minus the part of its interval its children cover
/// (children on pool threads overlap one another; their union counts once).
std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      kids[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t k : kids[i])
      iv.emplace_back(std::max(spans[k].start_ns, spans[i].start_ns),
                      std::min(spans[k].end_ns, spans[i].end_ns));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = spans[i].start_ns;
    for (const auto& [from, to] : iv) {
      const std::int64_t lo = std::max(from, reach);
      if (to > lo) {
        covered += to - lo;
        reach = to;
      }
    }
    self[i] = seconds_between(0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

/// Per-span-name count, total and self time, largest self time first; the
/// layer is the name's prefix (the module the call goes into). Times are
/// thread-seconds, so spans on pool threads can add up to more than 100%
/// of the wall.
std::string self_time_table(const std::vector<Span>& spans, double wall_s) {
  struct Row {
    std::size_t count = 0;
    double total_s = 0.0, self_s = 0.0;
  };
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, Row> rows;
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    ++r.count;
    r.total_s += span_s(spans[i]);
    r.self_s += self[i];
    const std::string name = spans[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-26s %9s %10s %10s %7s\n", "span",
                "count", "total_s", "self_s", "%wall");
  os << line;
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "%-26s %9zu %10.4f %10.4f %6.1f%%\n",
                  name.c_str(), r.count, r.total_s, r.self_s,
                  100.0 * r.self_s / wall_s);
    os << line;
  }
  os << "self time by layer:";
  for (const auto& [layer, s] : layers) {
    std::snprintf(line, sizeof line, "  %s %.1f%%", layer.c_str(),
                  100.0 * s / wall_s);
    os << line;
  }
  os << "\n";
  return os.str();
}

/// Chrome trace_event JSON ("X" complete events), loadable in Perfetto.
void write_chrome_trace(const fs::path& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  obs::JsonWriter w(out);
  const std::int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  w.begin_object().key("traceEvents").begin_array();
  for (const Span& s : spans) {
    w.begin_object()
        .member("name", s.name)
        .member("ph", "X")
        .member("ts", static_cast<double>(s.start_ns - epoch) / 1e3)
        .member("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .member("pid", std::int64_t{1})
        .member("tid", static_cast<std::int64_t>(s.tid));
    w.key("args").begin_object().member("parent",
                                        static_cast<std::int64_t>(s.parent));
    w.end_object().end_object();
  }
  w.end_array().end_object();
  out << "\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ---- in-process runs -----------------------------------------------------------

struct Inputs {
  net::Topology topo;
  std::unique_ptr<io::MappedStore> store;
  chg::ChangeLog log;
};

/// Loads a corpus through the same public calls, in the same order, as
/// `litmus_cli batch` (which fingerprints every input for its manifest).
Inputs load_inputs(const Corpus& c, Tracer* tr, bool fingerprint) {
  const auto fingerprint_input = [&](const std::string& path) {
    if (!fingerprint) return;
    Scope s(tr, "obs.fingerprint");
    if (!obs::fingerprint_file(path).ok)
      throw std::runtime_error("cannot fingerprint " + path);
  };
  Inputs in;
  {
    Scope s(tr, "io.topology_load");
    std::ifstream f(c.topology());
    if (!f) throw std::runtime_error("cannot open " + c.topology());
    in.topo = io::load_topology_csv(f);
  }
  fingerprint_input(c.topology());
  {
    Scope s(tr, "io.store_open");
    std::string why;
    in.store = io::MappedStore::open(c.snapshot(), &why);
    if (!in.store)
      throw std::runtime_error("cannot map " + c.snapshot() + ": " + why);
  }
  fingerprint_input(c.snapshot());
  {
    Scope s(tr, "io.changes_load");
    std::ifstream f(c.changes());
    if (!f) throw std::runtime_error("cannot open " + c.changes());
    io::load_changes_csv(f, in.log);
  }
  fingerprint_input(c.changes());
  return in;
}

// Control selection exactly as `litmus_cli batch --select zip` does it.
core::ControlPredicate zip_predicate() {
  return core::all_of({core::same_zip(), core::same_technology()});
}

std::uint64_t zip_key(const net::Topology& t, net::ElementId id) {
  const auto& e = t.get(id);
  return static_cast<std::uint64_t>(e.zip.value) * 8 +
         static_cast<std::uint64_t>(e.technology);
}

using Groups = std::unordered_map<std::uint64_t, std::vector<net::ElementId>>;

Groups group_elements(const net::Topology& t) {
  Groups g;
  for (const auto id : t.all()) g[zip_key(t, id)].push_back(id);
  return g;
}

core::AssessmentConfig assessment_config(const Workload& w) {
  core::AssessmentConfig a;
  a.before_bins = w.before_bins;
  a.after_bins = w.after_bins;
  a.regression.n_iterations = w.iterations;
  a.regression.adaptive_sampling = w.adaptive;
  return a;
}

core::BatchConfig batch_config(const Workload& w) {
  core::BatchConfig c;
  c.assessment = assessment_config(w);
  c.predicate = zip_predicate();
  c.group_key = zip_key;
  return c;
}

core::Verdict as_verdict(chg::Expectation e) {
  switch (e) {
    case chg::Expectation::kImprovement: return core::Verdict::kImprovement;
    case chg::Expectation::kDegradation: return core::Verdict::kDegradation;
    case chg::Expectation::kNoImpact: return core::Verdict::kNoImpact;
  }
  return core::Verdict::kNoImpact;
}

/// Ground truth of the scale corpus: the recorded expectation on the
/// change's target KPI, no impact on every other KPI.
core::Verdict truth(const chg::ChangeRecord& r, kpi::KpiId kpi) {
  return kpi == r.target_kpi ? as_verdict(r.expectation)
                             : core::Verdict::kNoImpact;
}

/// One in-process run of a workload and what it measured.
struct Run {
  std::string report;  ///< the text a user reads; its hash is the check
  double wall_s = 0.0;
  double assess_s = 0.0;  ///< the assessment phase alone
  std::int64_t loaded_ns = 0;  ///< inputs loaded (steady clock)
  std::uint64_t major_faults = 0;
  Tracer tracer;
  /// Parallel phases: wall seconds and CPU seconds of the whole process.
  double parallel_wall_s = 0.0, parallel_cpu_s = 0.0;
  core::PanelCache::Stats cache;  ///< delta over the run
  std::size_t assessments = 0;
  std::size_t verdicts = 0, misses = 0, degenerate = 0, early_stops = 0;
  std::uint64_t iterations_used = 0, successful_iterations = 0;

  void add_outcome(const core::AnalysisOutcome& o, core::Verdict expected) {
    ++verdicts;
    if (o.verdict != expected) ++misses;
    if (o.degenerate) ++degenerate;
    const core::VerdictExplanation& x = o.explanation;
    iterations_used += x.iterations_used;
    successful_iterations += x.successful_iterations;
    if (std::strcmp(x.stop_reason, "stable-verdict") == 0) ++early_stops;
  }
};

core::PanelCache::Stats cache_delta(const core::PanelCache::Stats& before) {
  core::PanelCache::Stats now = core::PanelCache::global().stats();
  now.hits -= before.hits;
  now.misses -= before.misses;
  now.evictions -= before.evictions;
  return now;
}

/// Turns the observability layer on with an event log, as
/// `litmus_cli batch --events-jsonl` does, for the guard's lifetime.
class EventsOn {
 public:
  explicit EventsOn(const fs::path& path) {
    if (path.empty()) return;
    fs::remove(path);  // open_output_file would rotate it, not replace it
    obs::set_enabled(true);
    log_ = obs::EventLog::open(path.string());
    obs::set_events(log_.get());
  }
  ~EventsOn() {
    if (!log_) return;
    obs::set_events(nullptr);
    obs::set_enabled(false);
  }
  EventsOn(const EventsOn&) = delete;
  EventsOn& operator=(const EventsOn&) = delete;

 private:
  std::unique_ptr<obs::EventLog> log_;
};

/// `litmus_cli batch` in this process: its set-up calls, then the library's
/// own driver, core::assess_change_log.
Run run_batch_library(const Corpus& c, const Workload& w,
                      const fs::path& events = {}) {
  core::PanelCache::global().clear();
  Run run;
  const std::int64_t t0 = now_ns();
  const Inputs in = load_inputs(c, nullptr, /*fingerprint=*/true);
  run.loaded_ns = now_ns();
  core::BatchReport report;
  {
    const EventsOn obs_on(events);
    report = core::assess_change_log(in.log, in.topo, in.store->provider(),
                                     batch_config(w));
  }
  run.assess_s = seconds_between(run.loaded_ns, now_ns());
  run.report = core::format_batch_report(report, in.topo);
  run.wall_s = seconds_between(t0, now_ns());
  return run;
}

/// Records per block, as in litmus/batch.cpp: the replica runs the batch
/// driver's shape, a serial prepare phase then a parallel assess phase.
constexpr std::size_t kBlockRecords = 1024;

/// The batch driver replayed call by call with a span around each call into
/// a layer; its report must be byte-identical to assess_change_log's.
Run replay_batch(const Corpus& c, const Workload& w) {
  core::PanelCache::global().clear();
  Run run;
  Tracer* tr = &run.tracer;
  const core::PanelCache::Stats cache0 = core::PanelCache::global().stats();
  const std::int64_t t0 = now_ns();
  const Inputs in = load_inputs(c, tr, /*fingerprint=*/true);
  run.loaded_ns = now_ns();
  run.major_faults = in.store->open_stats().major_faults;

  const core::BatchConfig config = batch_config(w);
  const core::Assessor assessor(in.topo, in.store->provider(),
                                config.assessment);
  const auto records = in.log.all();
  std::optional<chg::ChangeIndex> conflicts;
  Groups groups;
  core::BatchReport report;
  {
    Scope setup(tr, "litmus.batch_setup");
    {
      Scope s(tr, "changelog.index_build");
      conflicts.emplace(in.log);
    }
    {
      Scope s(tr, "litmus.group_index");
      groups = group_elements(in.topo);
    }
    report.items.resize(records.size());
  }
  const auto before = static_cast<std::int64_t>(w.before_bins);
  const auto after = static_cast<std::int64_t>(w.after_bins);

  struct Prepared {
    std::vector<net::ElementId> study, controls;
    std::vector<core::ElementWindows> windows;
  };
  for (std::size_t base = 0; base < records.size(); base += kBlockRecords) {
    // Declared after the block span, so freeing the windows is inside it.
    Scope batch_block(tr, "litmus.batch_block");
    const std::size_t n = std::min(kBlockRecords, records.size() - base);
    std::vector<Prepared> prep(n);
    {
      Scope block(tr, "litmus.prepare_block");
      for (std::size_t j = 0; j < n; ++j) {
        const chg::ChangeRecord& r = records[base + j];
        core::BatchItem& item = report.items[base + j];
        item.record = r;
        {
          Scope s(tr, "changelog.conflicts");
          item.conflicts = conflicts->conflicting_changes(
              in.topo, r.element, r.bin - before, r.bin + after, r.id);
        }
        item.window_clean = item.conflicts.empty();
        prep[j].study = {r.element};
        {
          Scope s(tr, "litmus.select");
          prep[j].controls =
              core::select_control_group_among(
                  in.topo, groups[zip_key(in.topo, r.element)],
                  prep[j].study, config.predicate, config.selection)
                  .controls;
        }
        Scope s(tr, "litmus.fetch");
        prep[j].windows.push_back(assessor.windows_for(
            r.element, prep[j].controls, r.target_kpi, r.bin));
      }
    }
    Scope block(tr, "parallel.assess_block");
    std::vector<Span> worker(n);
    const double cpu0 = cpu_seconds();
    const std::int64_t p0 = now_ns();
    par::parallel_for(n, [&](std::size_t j) {
      const std::int64_t s0 = now_ns();
      const chg::ChangeRecord& r = records[base + j];
      core::BatchItem& item = report.items[base + j];
      item.assessment = assessor.assess_windows(
          prep[j].study, prep[j].controls, prep[j].windows, r.target_kpi,
          r.bin);
      item.met_expectation =
          item.assessment.summary.verdict == as_verdict(r.expectation);
      worker[j] = {"litmus.assess_windows", s0, now_ns(), block.id(),
                   thread_index()};
    });
    run.parallel_wall_s += seconds_between(p0, now_ns());
    run.parallel_cpu_s += cpu_seconds() - cpu0;
    tr->append(worker);
  }
  {
    // The tallies of litmus/batch.cpp, in record order.
    Scope s(tr, "litmus.tally");
    report.adaptive_sampling = w.adaptive;
    for (const core::BatchItem& item : report.items) {
      switch (item.assessment.summary.verdict) {
        case core::Verdict::kImprovement: ++report.improvements; break;
        case core::Verdict::kDegradation: ++report.degradations; break;
        case core::Verdict::kNoImpact: ++report.no_impacts; break;
      }
      if (!item.window_clean) ++report.dirty_windows;
      if (!item.met_expectation) ++report.expectation_misses;
      if (!w.adaptive) continue;
      for (const auto& e : item.assessment.per_element) {
        const core::VerdictExplanation& x = e.outcome.explanation;
        if (x.iterations_used == 0) continue;
        report.adaptive_iterations_used += x.iterations_used;
        report.adaptive_iterations_budget += x.iterations_requested;
        if (x.iterations_used < x.iterations_requested)
          ++report.adaptive_stopped_early;
      }
    }
  }
  {
    Scope s(tr, "litmus.report");
    run.report = core::format_batch_report(report, in.topo);
  }
  run.wall_s = seconds_between(t0, now_ns());
  run.assess_s = seconds_between(run.loaded_ns, now_ns());
  run.cache = cache_delta(cache0);
  for (const core::BatchItem& item : report.items)
    for (const auto& e : item.assessment.per_element)
      run.add_outcome(e.outcome, truth(item.record, item.record.target_kpi));
  return run;
}

/// The changed NodeBs of each zip cluster, in change-log order: one FFA
/// study group per cluster.
std::vector<std::vector<const chg::ChangeRecord*>> ffa_clusters(
    const Inputs& in) {
  std::vector<std::vector<const chg::ChangeRecord*>> clusters;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (const chg::ChangeRecord& r : in.log.all()) {
    const auto [it, fresh] =
        index.try_emplace(zip_key(in.topo, r.element), clusters.size());
    if (fresh) clusters.emplace_back();
    clusters[it->second].push_back(&r);
  }
  return clusters;
}

/// The KPIs the corpus carries, in the order the assessments run.
std::vector<kpi::KpiId> corpus_kpis() { return sim::ScaleCorpusConfig{}.kpis; }

/// The FFA campaign: per zip cluster and KPI, select controls among the
/// cluster, fetch every study element's windows, and assess them together
/// (the Assessor fans out over the study elements), one at a time. Spans
/// are recorded only when `traced`.
Run run_ffa(const Corpus& c, const Workload& w, bool traced,
            std::vector<double>* latencies_s = nullptr,
            const fs::path& events = {}) {
  core::PanelCache::global().clear();
  Run run;
  Tracer* tr = traced ? &run.tracer : nullptr;
  const core::PanelCache::Stats cache0 = core::PanelCache::global().stats();
  const std::int64_t t0 = now_ns();
  const Inputs in = load_inputs(c, tr, /*fingerprint=*/false);
  run.loaded_ns = now_ns();
  run.major_faults = in.store->open_stats().major_faults;

  const core::Assessor assessor(in.topo, in.store->provider(),
                                assessment_config(w));
  const core::ControlPredicate predicate = zip_predicate();
  Groups groups;
  std::vector<std::vector<const chg::ChangeRecord*>> clusters;
  {
    Scope s(tr, "litmus.group_index");
    groups = group_elements(in.topo);
    clusters = ffa_clusters(in);
  }
  const EventsOn obs_on(events);
  std::vector<core::ChangeAssessment> done;
  for (const auto& cluster : clusters) {
    std::vector<net::ElementId> study;
    for (const chg::ChangeRecord* r : cluster) study.push_back(r->element);
    const std::int64_t bin = cluster.front()->bin;
    for (const kpi::KpiId kpi : corpus_kpis()) {
      const std::int64_t a0 = now_ns();
      std::vector<net::ElementId> controls;
      {
        Scope s(tr, "litmus.select");
        controls = core::select_control_group_among(
                       in.topo, groups[zip_key(in.topo, study.front())],
                       study, predicate)
                       .controls;
      }
      std::vector<core::ElementWindows> windows;
      windows.reserve(study.size());
      for (const net::ElementId e : study) {
        Scope s(tr, "litmus.fetch");
        windows.push_back(assessor.windows_for(e, controls, kpi, bin));
      }
      const double cpu0 = cpu_seconds();
      const std::int64_t p0 = now_ns();
      {
        Scope s(tr, "litmus.assess_windows");
        done.push_back(
            assessor.assess_windows(study, controls, windows, kpi, bin));
      }
      run.parallel_wall_s += seconds_between(p0, now_ns());
      run.parallel_cpu_s += cpu_seconds() - cpu0;
      if (latencies_s) latencies_s->push_back(seconds_between(a0, now_ns()));
      for (std::size_t i = 0; i < study.size(); ++i)
        run.add_outcome(done.back().per_element[i].outcome,
                        truth(*cluster[i], kpi));
    }
  }
  {
    Scope s(tr, "litmus.report");
    for (const core::ChangeAssessment& a : done)
      run.report += core::format_assessment(a, in.topo);
  }
  run.assessments = done.size();
  run.wall_s = seconds_between(t0, now_ns());
  run.assess_s = seconds_between(run.loaded_ns, now_ns());
  run.cache = cache_delta(cache0);
  return run;
}

// ---- results ---------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0.0;
  std::optional<Quartiles> spread;  ///< over the repetitions, when timed
  std::vector<double> reps;         ///< each repetition's value, in order
};

struct Outcome {
  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  /// Records a failed operation; a failure makes the whole run incorrect.
  void fail(const std::string& why) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "bench_e2e: FAILED: %s\n", why.c_str());
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value, {}, {}});
  }
  void add(std::string name, std::string unit, const std::vector<double>& v) {
    const Quartiles q = quartiles(v);
    metrics.push_back({std::move(name), std::move(unit), q.median, q, v});
  }
};

void check_misses(Outcome& o, std::size_t misses, std::size_t verdicts) {
  const double frac =
      verdicts ? static_cast<double>(misses) / static_cast<double>(verdicts)
               : 1.0;
  o.check(frac <= kMaxMissFrac,
          "verdicts miss the corpus ground truth at " + std::to_string(frac));
}

// ---- --trace 0: the user's view ---------------------------------------------------

struct Rep {
  double wall_s, setup_s, rss_mib, records_per_s;
};

/// Runs `rep` in a closed loop until `seconds` are spent (at least kMinReps
/// times, never starting one after kMaxLoopSeconds) or a repetition fails.
std::vector<Rep> timed_loop(double seconds,
                            const std::function<std::optional<Rep>()>& rep) {
  std::vector<Rep> reps;
  const std::int64_t t0 = now_ns();
  for (;;) {
    const double spent = seconds_between(t0, now_ns());
    const double per_rep =
        reps.empty() ? 0.0 : spent / static_cast<double>(reps.size());
    if (reps.size() >= kMinReps &&
        (spent + per_rep > seconds || spent > kMaxLoopSeconds))
      break;
    const std::optional<Rep> r = rep();
    if (!r) break;
    reps.push_back(*r);
  }
  return reps;
}

Outcome measure(const Workload& w, const Corpus& c, double seconds,
                const fs::path& work) {
  Outcome o;
  const fs::path self = fs::read_symlink("/proc/self/exe");
  const double records = static_cast<double>(c.records);
  std::vector<Rep> reps;
  if (!w.ffa) {
    // Warm-up and reference in one: the library's own driver reads every
    // input once and produces the report each CLI repetition must repeat
    // byte for byte.
    const Run ref = run_batch_library(c, w);
    const ReportCheck rc = check_batch_report(ref.report, c.records);
    ++o.attempted;
    o.check(rc.ok, "library report: " + rc.why);
    check_misses(o, rc.misses, c.records);
    const fs::path cli = self.parent_path() / "litmus_cli";
    reps = timed_loop(seconds, [&]() -> std::optional<Rep> {
      // Set-up alone (a header-only change log), then the full run.
      o.attempted += 2;
      const ChildRun s = run_child(cli_batch_args(cli, w, c, true), work);
      const ReportCheck sc = check_batch_report(s.out, 0);
      if (!s.ok || !sc.ok) {
        o.fail("set-up run: " + (s.ok ? sc.why : "non-zero exit"));
        return std::nullopt;
      }
      const ChildRun f = run_child(cli_batch_args(cli, w, c, false), work);
      const ReportCheck fc = check_batch_report(f.out, c.records);
      if (!f.ok || !fc.ok || fc.hash != rc.hash) {
        o.fail("batch run: " + (!f.ok   ? std::string("non-zero exit")
                                : !fc.ok ? fc.why
                                         : "report differs from the "
                                           "library's"));
        return std::nullopt;
      }
      return Rep{f.wall_s, s.wall_s, f.rss_mib,
                 records / std::max(f.wall_s - s.wall_s, 1e-9)};
    });
  } else {
    // Warm-up and reference: the campaign in this process.
    const Run ref = run_ffa(c, w, false);
    ++o.attempted;
    o.check(ref.degenerate == 0, "degenerate FFA outcomes");
    check_misses(o, ref.misses, ref.verdicts);
    const std::string digest = hex(hash_text(ref.report));
    reps = timed_loop(seconds, [&]() -> std::optional<Rep> {
      ++o.attempted;
      const ChildRun r =
          run_child({self.string(), "--ffa-child", c.dir.string()}, work);
      std::istringstream in(r.out);
      std::string child_digest;
      std::int64_t loaded_ns = 0;
      std::size_t assessments = 0;
      in >> child_digest >> loaded_ns >> assessments;
      if (!r.ok || child_digest != digest) {
        o.fail(r.ok ? "FFA child's verdicts differ from the reference"
                    : "FFA child: non-zero exit");
        return std::nullopt;
      }
      const double setup_s = seconds_between(r.spawn_ns, loaded_ns);
      return Rep{r.wall_s, setup_s, r.rss_mib,
                 static_cast<double>(assessments) /
                     std::max(r.wall_s - setup_s, 1e-9)};
    });
  }
  std::vector<double> wall, setup, rss, rate;
  for (const Rep& r : reps) {
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mib);
    rate.push_back(r.records_per_s);
  }
  if (reps.empty()) o.fail("no repetition completed");
  o.add("wall_s", "s", wall);
  o.add("setup_s", "s", setup);
  o.add("records_per_s", "1/s", rate);
  o.add("peak_rss_mb", "MiB", rss);
  return o;
}

/// `bench_e2e --ffa-child DIR`: one FFA campaign in a fresh process. Prints
/// the report digest, the steady-clock time its inputs were loaded, and
/// the number of assessments.
int ffa_child(const std::string& dir) {
  const Workload& w = *find_workload("ffa");
  Corpus c;
  c.dir = dir;
  const Run run = run_ffa(c, w, false);
  std::printf("%s %lld %zu\n", hex(hash_text(run.report)).c_str(),
              static_cast<long long>(run.loaded_ns), run.assessments);
  return run.degenerate == 0 ? 0 : 1;
}

// ---- --trace 1: the layers' view --------------------------------------------------

/// Per-element costs measured serially (one thread) on a sample of the
/// workload's own study elements, outside any other run.
struct Probe {
  double regression_s = 0.0, rank_test_s = 0.0, vote_s = 0.0;
  std::size_t elements = 0, rank_tests = 0, votes = 0;
  std::uint64_t iterations = 0;
};

Probe probe_layers(const Corpus& c, const Workload& w) {
  core::PanelCache::global().clear();
  par::set_threads(1);
  const Inputs in = load_inputs(c, nullptr, /*fingerprint=*/false);
  const core::AssessmentConfig config = assessment_config(w);
  const core::Assessor assessor(in.topo, in.store->provider(), config);
  const core::RobustSpatialRegression regression(config.regression);
  const core::ControlPredicate predicate = zip_predicate();
  Groups groups = group_elements(in.topo);

  // Study groups as the workload forms them: a cluster for ffa, a single
  // record for the batch workloads; spread evenly over the change log.
  std::vector<std::vector<const chg::ChangeRecord*>> studies;
  if (w.ffa)
    studies = ffa_clusters(in);
  else
    for (const chg::ChangeRecord& r : in.log.all()) studies.push_back({&r});
  const std::size_t per_study = studies.front().size();
  const std::size_t stride = std::max<std::size_t>(
      1, studies.size() * per_study / kSampleElements);

  Probe p;
  for (std::size_t i = 0; i < studies.size() && p.elements < kSampleElements;
       i += stride) {
    const auto& group = studies[i];
    std::vector<net::ElementId> study;
    for (const chg::ChangeRecord* r : group) study.push_back(r->element);
    const kpi::KpiId kpi = group.front()->target_kpi;
    const std::vector<net::ElementId> controls =
        core::select_control_group_among(
            in.topo, groups[zip_key(in.topo, study.front())], study,
            predicate)
            .controls;
    std::vector<core::AnalysisOutcome> outcomes;
    for (const net::ElementId e : study) {
      const core::ElementWindows windows =
          assessor.windows_for(e, controls, kpi, group.front()->bin);
      std::int64_t t0 = now_ns();
      outcomes.push_back(regression.assess(windows, kpi));
      p.regression_s += seconds_between(t0, now_ns());
      p.iterations += outcomes.back().explanation.iterations_used;
      ++p.elements;
      core::RobustSpatialRegression::Forecast fc;
      if (!regression.forecast(windows, fc)) continue;
      t0 = now_ns();
      ts::robust_rank_order(fc.forecast_diff_after.values(),
                            fc.forecast_diff_before.values(),
                            config.regression.alpha);
      p.rank_test_s += seconds_between(t0, now_ns());
      ++p.rank_tests;
    }
    const std::int64_t t0 = now_ns();
    core::vote(outcomes);
    p.vote_s += seconds_between(t0, now_ns());
    ++p.votes;
  }
  par::set_threads(bench_threads());
  return p;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Outcome trace(const Workload& w, const Corpus& c, const fs::path& work) {
  Outcome o;
  const fs::path self = fs::read_symlink("/proc/self/exe");
  const std::size_t threads = bench_threads();

  // 1. The user's path in a fresh process: the output every in-process run
  //    below must reproduce.
  ++o.attempted;
  std::string user_digest;
  if (w.ffa) {
    const ChildRun r =
        run_child({self.string(), "--ffa-child", c.dir.string()}, work);
    o.check(r.ok, "FFA child: non-zero exit");
    std::istringstream(r.out) >> user_digest;
  } else {
    const ChildRun r = run_child(
        cli_batch_args(self.parent_path() / "litmus_cli", w, c, false), work);
    const ReportCheck rc = check_batch_report(r.out, c.records);
    o.check(r.ok && rc.ok, "batch run: " + rc.why);
    user_digest = hex(rc.hash);
  }
  const auto digest = [&](const Run& run) {
    if (w.ffa) return hex(hash_text(run.report));
    return hex(check_batch_report(run.report, c.records).hash);
  };
  const auto same_output = [&](const Run& run, const char* what) {
    ++o.attempted;
    o.check(digest(run) == user_digest,
            std::string(what) + ": output differs from the user's run");
  };
  const auto untraced = [&](const fs::path& events = {}) {
    return w.ffa ? run_ffa(c, w, false, nullptr, events)
                 : run_batch_library(c, w, events);
  };

  // 2. Untraced at T: the baseline for the tracing and events overheads.
  const Run base = untraced();
  same_output(base, "untraced run");
  // 3. Traced at T: every per-layer span.
  const Run traced = w.ffa ? run_ffa(c, w, true) : replay_batch(c, w);
  same_output(traced, "traced replica");
  o.check(traced.degenerate == 0, "degenerate outcomes");
  check_misses(o, traced.misses, traced.verdicts);
  // 4. One thread: the same bits, and the speed-up.
  par::set_threads(1);
  const Run one = untraced();
  par::set_threads(threads);
  same_output(one, "one-thread run");
  // 5. Events on, as --events-jsonl runs.
  const Run events = untraced(work / "events.jsonl");
  same_output(events, "events-on run");
  fs::remove(work / "events.jsonl");
  // 6. Serial per-element costs.
  const Probe probe = probe_layers(c, w);

  const std::vector<Span>& spans = traced.tracer.spans();
  const auto total = [&](const char* name) {
    double s = 0.0;
    for (const double d : durations_s(spans, name)) s += d;
    return s;
  };
  const auto mean_us = [&](const char* name) {
    return mean(durations_s(spans, name)) * 1e6;
  };
  const std::vector<double> assess_s = durations_s(spans, "litmus.assess_windows");
  double top_level_s = 0.0;
  for (const Span& s : spans)
    if (s.parent < 0) top_level_s += span_s(s);
  const double serial_s =
      w.ffa ? total("litmus.select") + total("litmus.fetch")
            : total("litmus.prepare_block");
  const double verdicts = static_cast<double>(traced.verdicts);

  o.add("io.store_open_s", "s", total("io.store_open"));
  o.add("io.topology_load_s", "s", total("io.topology_load"));
  o.add("io.changes_load_s", "s", total("io.changes_load"));
  o.add("io.open_major_faults", "count",
        static_cast<double>(traced.major_faults));
  o.add("obs.fingerprint_s", "s", total("obs.fingerprint"));
  o.add("changelog.conflicts_us", "us", mean_us("changelog.conflicts"));
  o.add("litmus.select_us", "us", mean_us("litmus.select"));
  o.add("litmus.fetch_us", "us", mean_us("litmus.fetch"));
  o.add("litmus.assess_us.p50", "us", percentile(assess_s, 0.50) * 1e6);
  o.add("litmus.assess_us.p99", "us", percentile(assess_s, 0.99) * 1e6);
  o.add("litmus.regression_us", "us",
        ratio(probe.regression_s, static_cast<double>(probe.elements)) * 1e6);
  o.add("litmus.regression_us_per_iter", "us",
        ratio(probe.regression_s, static_cast<double>(probe.iterations)) *
            1e6);
  o.add("litmus.iterations_per_element", "count",
        ratio(static_cast<double>(traced.iterations_used), verdicts));
  o.add("litmus.early_stop_frac", "ratio",
        ratio(static_cast<double>(traced.early_stops), verdicts));
  o.add("litmus.fit_success_ratio", "ratio",
        ratio(static_cast<double>(traced.successful_iterations),
              static_cast<double>(traced.iterations_used)));
  o.add("litmus.miss_frac", "ratio",
        ratio(static_cast<double>(traced.misses), verdicts));
  o.add("tsmath.rank_test_us", "us",
        ratio(probe.rank_test_s, static_cast<double>(probe.rank_tests)) * 1e6);
  o.add("litmus.vote_us", "us",
        ratio(probe.vote_s, static_cast<double>(probe.votes)) * 1e6);
  o.add("litmus.report_ms", "ms", total("litmus.report") * 1e3);
  o.add("litmus.panel_cache.hit_ratio", "ratio",
        ratio(static_cast<double>(traced.cache.hits),
              static_cast<double>(traced.cache.hits + traced.cache.misses)));
  o.add("litmus.panel_cache.builds", "count",
        static_cast<double>(traced.cache.misses));
  o.add("parallel.serial_frac", "ratio",
        ratio(serial_s, serial_s + traced.parallel_wall_s));
  o.add("parallel.busy_frac", "ratio",
        ratio(traced.parallel_cpu_s,
              static_cast<double>(threads) * traced.parallel_wall_s));
  o.add("parallel.speedup", "x", ratio(one.wall_s, base.wall_s));
  o.add("obs.events_overhead_frac", "ratio",
        ratio(events.assess_s, base.assess_s) - 1.0);
  o.add("trace.unattributed_frac", "ratio",
        1.0 - ratio(top_level_s, traced.wall_s));
  o.add("trace.overhead_frac", "ratio", ratio(traced.wall_s, base.wall_s) - 1.0);

  const std::string table = self_time_table(spans, traced.wall_s);
  std::printf("self time of the traced replica (wall %.3f s, %zu spans):\n%s",
              traced.wall_s, spans.size(), table.c_str());
  const std::string stem = std::string("trace-") + w.name;
  std::ofstream(work / (stem + ".txt")) << table;
  write_chrome_trace(work / (stem + ".json"), spans);
  std::printf("trace: %s\n", (work / (stem + ".json")).string().c_str());
  return o;
}

// ---- output ------------------------------------------------------------------------

// LITMUS_BUILD_TYPE, LITMUS_COMPILER and LITMUS_GIT_REV come from
// CMakeLists.txt.
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

void write_host(obs::JsonWriter& j) {
  j.key("host").begin_object();
  j.member("nproc", static_cast<std::uint64_t>(par::hardware_threads()))
      .member("threads", static_cast<std::uint64_t>(bench_threads()))
      .member("simd", ts::simd::describe())
      .member("build_type", LITMUS_BUILD_TYPE)
      .member("optimized", kOptimized)
      .member("compiler", LITMUS_COMPILER)
      .member("git_rev", LITMUS_GIT_REV);
  j.end_object();
}

void write_metrics(obs::JsonWriter& j, const Outcome& o) {
  j.key("metrics").begin_object();
  for (const Metric& m : o.metrics) {
    j.key(m.name).begin_object().member("value", m.value).member("unit",
                                                                 m.unit);
    j.end_object();
  }
  j.end_object();
}

/// Appends one line per run to results.jsonl: the host block, the inputs,
/// and every metric with its quartiles — what compare.py reads.
void append_result(const fs::path& path, const Workload& w,
                   std::uint64_t seed, bool traced, double seconds,
                   const Corpus& c, const Outcome& o) {
  std::ofstream out(path, std::ios::app);
  obs::JsonWriter j(out);
  j.begin_object();
  write_host(j);
  j.member("workload", w.name)
      .member("seed", seed)
      .member("trace", traced)
      .member("seconds", seconds)
      .member("corpus_gen_s", c.generated_s)
      .member("correct", o.correct)
      .member("attempted", static_cast<std::uint64_t>(o.attempted))
      .member("failed", static_cast<std::uint64_t>(o.failed));
  write_metrics(j, o);
  j.key("quartiles").begin_object();
  for (const Metric& m : o.metrics) {
    if (!m.spread) continue;
    j.key(m.name).begin_object();
    j.member("q1", m.spread->q1)
        .member("median", m.spread->median)
        .member("q3", m.spread->q3)
        .member("n", static_cast<std::uint64_t>(m.spread->n));
    j.key("reps").begin_array();
    for (const double v : m.reps) j.value(v);
    j.end_array().end_object();
  }
  j.end_object().end_object();
  out << "\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n  workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// The benchmark's runs see only the generated inputs: no LITMUS_*
/// variable (threads, shards, SIMD tier, cache size, serving) leaks in.
void clear_litmus_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("LITMUS_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

int run_main(int argc, char** argv) {
  clear_litmus_environment();
  par::set_threads(bench_threads());
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (const auto it = args.find("ffa-child"); it != args.end())
    return ffa_child(it->second);

  const Workload* w =
      args.contains("workload") ? find_workload(args["workload"]) : nullptr;
  if (!w) return usage();
  for (const auto& [key, value] : args)
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace")
      return usage();
  const std::uint64_t seed =
      args.contains("seed") ? std::stoull(args["seed"]) : kDefaultSeed;
  const double seconds =
      args.contains("seconds") ? std::stod(args["seconds"]) : kDefaultSeconds;
  const std::string trace_flag = args.contains("trace") ? args["trace"] : "0";
  if (trace_flag != "0" && trace_flag != "1") return usage();
  const bool traced = trace_flag == "1";

  if (!kOptimized)
    std::fprintf(stderr,
                 "\n*** WARNING: bench_e2e was built without optimisation "
                 "(%s); its timings say nothing about the code. ***\n\n",
                 LITMUS_BUILD_TYPE);
  const fs::path bin_dir = fs::read_symlink("/proc/self/exe").parent_path();
  const fs::path work = bin_dir / "work";
  fs::create_directories(work);

  const Corpus corpus = prepare_corpus(work, *w, seed);
  std::printf("bench_e2e %s seed %llu, %s, T=%zu of %zu cores, %s %s, rev %s\n",
              w->name, static_cast<unsigned long long>(seed),
              traced ? "traced" : "timed", bench_threads(),
              par::hardware_threads(), LITMUS_BUILD_TYPE,
              ts::simd::describe().c_str(), LITMUS_GIT_REV);
  if (corpus.generated_s > 0)
    std::printf("corpus %s: %zu records, generated in %.2f s\n",
                corpus.dir.string().c_str(), corpus.records,
                corpus.generated_s);
  else
    std::printf("corpus %s: %zu records, cached\n",
                corpus.dir.string().c_str(), corpus.records);

  const Outcome o =
      traced ? trace(*w, corpus, work) : measure(*w, corpus, seconds, work);
  for (const Metric& m : o.metrics) {
    std::printf("%-32s %14.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.spread)
      std::printf("   (q1 %.6g, q3 %.6g, n %zu)", m.spread->q1, m.spread->q3,
                  m.spread->n);
    std::printf("\n");
  }
  append_result(bin_dir / "results.jsonl", *w, seed, traced, seconds, corpus,
                o);

  std::ostringstream line;
  obs::JsonWriter j(line);
  j.begin_object()
      .member("correct", o.correct)
      .member("attempted", static_cast<std::uint64_t>(o.attempted))
      .member("failed", static_cast<std::uint64_t>(o.failed));
  write_metrics(j, o);
  j.end_object();
  std::printf("%s\n", line.str().c_str());
  return o.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}

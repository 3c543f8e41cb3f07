// litmus_cli — run a Litmus assessment from CSV files; `litmus_cli --help`
// lists every command and flag.
//
// Each command is a row of kCommands and each flag a row of kFlags: its
// value kind and range, whether it can change a result, the commands that
// take it and need it, and one help line. The flag table drives parsing,
// the value checks, usage() and the run manifest's informational list, so
// a bad value fails as `bad --KEY: VALUE` before any input is opened.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "cellnet/builder.h"
#include "io/changes.h"
#include "io/csv.h"
#include "io/ingest.h"
#include "io/mapped_store.h"
#include "io/store.h"
#include "litmus/batch.h"
#include "litmus/did.h"
#include "litmus/monitor.h"
#include "litmus/report.h"
#include "litmus/study_only.h"
#include "obs/chrometrace.h"
#include "obs/events.h"
#include "obs/http.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/rundiff.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "simkit/generator.h"
#include "tsmath/simd/dispatch.h"
#include "simkit/network_events.h"
#include "simkit/scale.h"
#include "simkit/seasonality.h"

using namespace litmus;

namespace {

// ---- the flag table ---------------------------------------------------------

// Commands, as bits of Flag::commands and Flag::required.
enum : unsigned {
  kExportDemo = 1u << 0,
  kAssess = 1u << 1,
  kBatch = 1u << 2,
  kMonitor = 1u << 3,
  kGenCorpus = 1u << 4,
  kProfile = 1u << 5,
  kDiffRuns = 1u << 6,
  kRuns = kAssess | kBatch | kMonitor,
};

// Whether a flag's value can change what a run computes. A run manifest
// lists the given kInfo flags as informational, and diff-runs reports a
// change to one of them without gating on it.
enum Effect : bool { kResult, kInfo };

enum class Kind {
  kSwitch,  // takes no value; recorded as "1"
  kText,    // any string: a path or a directory
  kInt,     // an integer in [min, max]
  kDays,    // an integer in [min, max] days, read as hourly bins
  kReal,    // a finite number in [min, max]
  kIds,     // comma-separated element ids in [min, max], none repeated
  kChoice,  // one of the '|'-separated words of `value`
  kKpi,     // a KPI name (kpi/kpi.h)
  kAddr,    // PORT or ADDR:PORT (obs/http.h)
};

struct Flag {
  std::string_view name;
  Kind kind;
  Effect effect;
  unsigned commands;  // the commands that accept it
  unsigned required;  // the commands that need it
  std::string_view value;  // placeholder in usage(); a kChoice's words
  std::string_view help;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

constexpr std::int64_t kMinInt = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
// Counts land in size_t; day counts are multiplied by 24 first.
constexpr auto kMaxCount = static_cast<std::int64_t>(
    std::min<std::uint64_t>(std::numeric_limits<std::size_t>::max(), kMaxInt));
constexpr auto kMaxDays =
    static_cast<std::int64_t>(std::numeric_limits<std::size_t>::max() / 24);
constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

constexpr Flag kFlags[] = {
    // Inputs.
    {"topology", Kind::kText, kInfo, kRuns, kRuns, "FILE", "topology CSV"},
    {"series", Kind::kText, kInfo, kRuns, kAssess | kMonitor, "FILE",
     "KPI series CSV (batch: this or --series-snap)"},
    {"series-snap", Kind::kText, kInfo, kBatch, 0, "SNAP",
     "map a .litmus-snap in place of --series"},
    {"changes", Kind::kText, kInfo, kBatch, kBatch, "FILE", "change-log CSV"},
    {"snapshot-cache", Kind::kText, kInfo, kRuns, 0, "DIR",
     "binary cache of parsed --series CSVs"},
    // What to assess.
    {"study", Kind::kIds, kResult, kAssess | kMonitor, kAssess | kMonitor,
     "IDS", "study element ids", 1, kMaxU32},
    {"controls", Kind::kIds, kResult, kAssess | kMonitor, 0, "IDS",
     "control ids, none in --study (else --select)", 1, kMaxU32},
    {"select", Kind::kChoice, kResult, kRuns, 0, "region|msc|zip",
     "control predicate (default region)"},
    {"kpi", Kind::kKpi, kResult, kAssess | kMonitor, kAssess | kMonitor, "NAME",
     "KPI, e.g. voice_retainability"},
    {"change-bin", Kind::kInt, kResult, kAssess | kMonitor,
     kAssess | kMonitor, "N", "hourly bin of the change", kMinInt, kMaxInt},
    // Windows.
    {"before-days", Kind::kDays, kResult, kAssess | kMonitor, 0, "N",
     "training window in days (default 14)", 1, kMaxDays},
    {"after-days", Kind::kDays, kResult, kAssess, 0, "N",
     "after window in days (default 14)", 1, kMaxDays},
    {"window-days", Kind::kDays, kResult, kMonitor, 0, "N",
     "sliding after window in days (default 3)", 1, kMaxDays},
    {"step-hours", Kind::kInt, kResult, kMonitor, 0, "N",
     "hours between windows (default 24)", 1, kMaxCount},
    {"confirm", Kind::kInt, kResult, kMonitor, 0, "N",
     "windows in a row to change state (default 3)", 1, kMaxCount},
    {"before-bins", Kind::kInt, kResult, kBatch | kGenCorpus, 0, "N",
     "hourly bins before each change", 1, kMaxCount},
    {"after-bins", Kind::kInt, kResult, kBatch | kGenCorpus, 0, "N",
     "hourly bins after each change", 1, kMaxCount},
    // Sampling.
    {"seed", Kind::kInt, kResult, kRuns | kGenCorpus, 0, "N",
     "sampling/corpus seed", 0, kMaxInt},
    {"iterations", Kind::kInt, kResult, kBatch, 0, "N",
     "sampling iterations (default 25)", 1, kMaxCount},
    {"adaptive-sampling", Kind::kChoice, kResult, kRuns, 0, "on|off",
     "stop sampling once the verdict is stable"},
    // Execution; verdicts are bit-identical at any setting.
    {"threads", Kind::kInt, kInfo, kRuns, 0, "N",
     "worker threads (default: hardware)", 1, kMaxCount},
    {"simd", Kind::kChoice, kInfo, kRuns, 0, "scalar|sse2|avx2|avx512|neon",
     "force a kernel tier"},
    // Observability.
    {"explain", Kind::kSwitch, kInfo, kAssess, 0, "",
     "print the audit trail of each verdict"},
    {"metrics-json", Kind::kText, kInfo, kRuns, 0, "FILE",
     "write the metrics registry as JSON"},
    {"events-jsonl", Kind::kText, kInfo, kRuns, 0, "FILE",
     "stream run events; manifest + metrics beside"},
    {"profile-json", Kind::kText, kInfo, kRuns, 0, "FILE",
     "write the span timeline as a Chrome trace"},
    {"profile-sample", Kind::kInt, kInfo, kRuns, 0, "N",
     "record 1 span in N (default: all)", 1, kMaxU32},
    {"serve", Kind::kAddr, kInfo, kRuns, 0, "[ADDR:]PORT",
     "HTTP /metrics /healthz /readyz /status /events"},
    {"ready-stale-ms", Kind::kInt, kInfo, kRuns, 0, "N",
     "/readyz 503 after N ms idle (default 30000)", 1, kMaxInt},
    {"tick-ms", Kind::kInt, kInfo, kMonitor, 0, "N",
     "pause between replay steps", 0, kMaxInt},
    {"linger-ms", Kind::kInt, kInfo, kMonitor, 0, "N",
     "keep --serve up N ms after the replay", 0, kMaxInt},
    // gen-corpus.
    {"elements", Kind::kInt, kResult, kGenCorpus, 0, "N",
     "elements (default 100000)", 1, kMaxCount},
    {"cluster-size", Kind::kInt, kResult, kGenCorpus, 0, "N",
     "NodeBs per zip cluster (default 40)", 1, kMaxCount},
    {"change-stride", Kind::kInt, kResult, kGenCorpus, 0, "N",
     "a change on every Nth NodeB (default 64)", 1, kMaxCount},
    {"improve-stride", Kind::kInt, kResult, kGenCorpus, 0, "N",
     "every Nth change is real (default 2)", 1, kMaxCount},
    {"shift-sigma", Kind::kReal, kResult, kGenCorpus, 0, "F",
     "a real change's shift in sigma (default 2)", kMinInt, kMaxInt},
    // profile.
    {"top", Kind::kInt, kInfo, kProfile, 0, "N",
     "slowest spans listed (default 10)", 0, kMaxCount},
    // diff-runs.
    {"max-flips", Kind::kInt, kResult, kDiffRuns, 0, "N",
     "verdict flips allowed (default 0)", 0, kMaxCount},
    {"metric-tolerance", Kind::kReal, kResult, kDiffRuns, 0, "F",
     "relative metric drift allowed (default 0.25)", 0, kMaxInt},
    {"wall-tolerance", Kind::kReal, kResult, kDiffRuns, 0, "F",
     "relative wall-time drift allowed (0: off)", 0, kMaxInt},
    {"ignore-manifest", Kind::kSwitch, kResult, kDiffRuns, 0, "",
     "do not gate on config differences"},
};

const Flag* find_flag(std::string_view name) {
  const auto it = std::ranges::find(kFlags, name, &Flag::name);
  return it == std::end(kFlags) ? nullptr : it;
}

// A flag as given, with its value as checked against the flag's row.
struct Value {
  const Flag* flag = nullptr;
  std::string raw;
  std::int64_t n = 0;  // kInt, kDays
  double x = 0;        // kReal
  std::vector<net::ElementId> ids;
};

// Parses `raw` as `flag`'s kind and range, or throws `bad --NAME: RAW`.
Value check_value(const Flag& flag, std::string raw) {
  Value v;
  v.flag = &flag;
  v.raw = std::move(raw);
  const auto bad = [&](const std::string& why) {
    return std::runtime_error("bad --" + std::string(flag.name) + ": " +
                              v.raw + (why.empty() ? "" : " (" + why + ")"));
  };
  switch (flag.kind) {
    case Kind::kSwitch:
    case Kind::kText:
      break;
    case Kind::kInt:
    case Kind::kDays: {
      const auto n = io::parse_int(v.raw);
      if (!n || *n < flag.min || *n > flag.max) throw bad("");
      v.n = *n;
      break;
    }
    case Kind::kReal: {
      // A NaN would compare false against every bound: a NaN tolerance
      // would turn a diff-runs gate off.
      const auto x = io::parse_double(v.raw);
      if (!x || !std::isfinite(*x) || *x < static_cast<double>(flag.min) ||
          *x > static_cast<double>(flag.max))
        throw bad("");
      v.x = *x;
      break;
    }
    case Kind::kIds: {
      std::unordered_set<std::int64_t> seen;
      std::stringstream ss(v.raw);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        const auto id = io::parse_int(tok);
        if (!id || *id < flag.min || *id > flag.max)
          throw bad("bad element id: " + tok);
        if (!seen.insert(*id).second) throw bad("repeated id " + tok);
        v.ids.push_back(net::ElementId{static_cast<std::uint32_t>(*id)});
      }
      if (v.ids.empty()) throw bad("no element ids");
      break;
    }
    case Kind::kChoice:
      if (v.raw.find('|') != std::string::npos ||
          ("|" + std::string(flag.value) + "|").find("|" + v.raw + "|") ==
              std::string::npos)
        throw bad("want " + std::string(flag.value));
      break;
    case Kind::kKpi:
      if (!kpi::parse_kpi(v.raw)) throw bad("");
      break;
    case Kind::kAddr:
      if (!obs::parse_serve_addr(v.raw)) throw bad("want PORT or ADDR:PORT");
      break;
  }
  return v;
}

// One command line: the command's positional arguments, then its flags,
// every value already checked. The getters take a flag's table name; a
// name outside the table is a bug in the caller and throws logic_error.
class Args {
 public:
  std::vector<std::string> positional;

  void add(Value v) {
    const std::string name(v.flag->name);
    given_.insert_or_assign(name, std::move(v));
  }

  bool has(std::string_view name) const { return find(name) != nullptr; }

  /// The value as given; "" when the flag is absent.
  std::string text(std::string_view name) const {
    const Value* v = find(name);
    return v ? v->raw : std::string();
  }

  /// The checked number, or `fallback` when the flag is absent. kDays
  /// flags read as hourly bins; the range check keeps the product in T.
  template <class T>
  T get(std::string_view name, T fallback) const {
    const Value* v = find(name);
    if (!v) return fallback;
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(v->x);
    } else {
      const T unit = v->flag->kind == Kind::kDays ? 24 : 1;
      return static_cast<T>(v->n) * unit;
    }
  }

  /// The checked id list; empty when the flag is absent.
  const std::vector<net::ElementId>& ids(std::string_view name) const {
    static const std::vector<net::ElementId> kNone;
    const Value* v = find(name);
    return v ? v->ids : kNone;
  }

  /// Every given flag by name, in name order.
  const std::map<std::string, Value, std::less<>>& given() const {
    return given_;
  }

 private:
  const Value* find(std::string_view name) const {
    if (!find_flag(name))
      throw std::logic_error("no flag --" + std::string(name) + " in kFlags");
    const auto it = given_.find(name);
    return it == given_.end() ? nullptr : &it->second;
  }

  std::map<std::string, Value, std::less<>> given_;
};

// ---- observability session --------------------------------------------------

// Observability flags shared by assess, batch and monitor: turn collection
// on before the pipeline runs, dump the requested JSON files after.
//
// With --events-jsonl the session becomes a *persisted run*: a RunManifest
// (version, build flags, threads, seed, resolved config, input
// fingerprints) is written as run_manifest.json into the event file's
// directory, a structured JSONL event stream brackets the pipeline with
// run_start..run_end, and metrics.json lands in the same directory — the
// exact layout `litmus_cli diff-runs` consumes. The manifest is also
// embedded in every JSON artifact the session writes.
//
// Output files are never silently overwritten: an existing file rotates to
// "<path>.old" (then ".old.1", ".old.2", ...) with a warning, and missing
// parent directories are created (obs::open_output_file).
class ObsSession {
 public:
  ObsSession(const std::string& command, const Args& args) {
    metrics_path_ = args.text("metrics-json");
    events_path_ = args.text("events-jsonl");
    profile_path_ = args.text("profile-json");
    serve_spec_ = args.text("serve");
    ready_stale_ms_ = args.get("ready-stale-ms", ready_stale_ms_);

    manifest_.tool = "litmus_cli " + command;
    manifest_.build_flags = obs::build_flags_string();
    manifest_.threads = par::threads();
    manifest_.simd_detected = ts::simd::tier_name(ts::simd::detected_tier());
    manifest_.simd_dispatch = ts::simd::tier_name(ts::simd::active_tier());
    manifest_.started_at_utc = obs::utc_timestamp_now();
    // The flags exactly as passed, so diff-runs compares like with like
    // across versions (--before-days stays "14", not bins).
    for (const auto& [name, value] : args.given())
      manifest_.add_config("--" + name, value.raw,
                           value.flag->effect == kInfo);

    if (!metrics_path_.empty() || !events_path_.empty() ||
        !serve_spec_.empty())
      obs::set_enabled(true);
    if (!profile_path_.empty()) {
      obs::set_thread_name("main");
      obs::TraceConfig config;
      config.sample_every = args.get("profile-sample", std::uint32_t{1});
      obs::Tracer::global().start(config);
    }
  }

  ~ObsSession() { obs::set_events(nullptr); }

  /// Registers an input file for the manifest (call for every file the
  /// command loads, before start()). start() fingerprints it, and only
  /// when some output carries the manifest.
  void add_input(const std::string& path) {
    unhashed_.push_back(manifest_.inputs.size());
    manifest_.inputs.push_back({.path = path});
  }
  /// Records an input whose fingerprint the ingest layer already computed.
  void add_input(const std::string& path, std::uint64_t bytes,
                 std::uint64_t hash) {
    manifest_.add_input(path, bytes, hash);
  }
  /// Adds a resolved-config note (e.g. parsed-vs-snapshot per input);
  /// diff-runs gates on a changed kResult note only.
  void note(std::string key, std::string value, Effect effect) {
    manifest_.add_config(std::move(key), std::move(value), effect == kInfo);
  }
  void set_seed(std::uint64_t seed) { manifest_.seed = seed; }

  /// Registers command-specific /status members (e.g. the monitor state
  /// machines). Call before start().
  void set_status_fn(obs::HttpServer::StatusFn fn) {
    status_fn_ = std::move(fn);
  }
  bool serving() const noexcept { return server_.running(); }

  /// Freezes the manifest, persists it, and opens the event stream; call
  /// after inputs are registered and before the pipeline runs. With
  /// --serve the HTTP plane comes up first so the bound address lands in
  /// the manifest (and thus in run_manifest.json and every artifact).
  void start() {
    if (!metrics_path_.empty() || !events_path_.empty() ||
        !profile_path_.empty() || !serve_spec_.empty())
      for (const std::size_t i : unhashed_)
        manifest_.inputs[i] = obs::fingerprint_file(manifest_.inputs[i].path);
    if (!serve_spec_.empty()) {
      const auto addr = obs::parse_serve_addr(serve_spec_).value();
      obs::ServeOptions opts;
      opts.host = addr.first;
      opts.port = addr.second;
      opts.ready_stale_after_ms = ready_stale_ms_;
      server_.set_manifest(&manifest_);
      server_.set_status_fn(status_fn_);
      const std::string bound = server_.start(opts);
      manifest_.add_config("serve.addr", bound, /*informational=*/true);
      std::printf("serving on http://%s  (/metrics /healthz /readyz "
                  "/status /events)\n",
                  bound.c_str());
      std::fflush(stdout);  // CI polls stdout for the bound port
    }
    if (!events_path_.empty()) {
      run_dir_ = std::filesystem::path(events_path_).parent_path().string();
      if (run_dir_.empty()) run_dir_ = ".";
      manifest_.write_file(run_dir_ + "/run_manifest.json");
      events_ = obs::EventLog::open(events_path_);
    } else if (server_.running()) {
      // No JSONL file requested, but /events needs something to page:
      // keep a ring-only log in memory.
      events_ = std::make_unique<obs::EventLog>();
    }
    if (events_) {
      obs::set_events(events_.get());
      events_->emit(obs::EventType::kRunStart, [&](obs::JsonWriter& w) {
        w.member("tool", manifest_.tool)
            .member("version", manifest_.version)
            .member("seed", manifest_.seed)
            .member("threads",
                    static_cast<std::uint64_t>(manifest_.threads));
      });
    }
    run_t0_ns_ = obs::now_ns();
  }

  /// Writes the requested dumps; throws on unwritable paths.
  void finish() {
    // The plane goes down with the run: stop before the final dumps so a
    // scrape can never observe a half-written end state.
    server_.stop();
    if (events_) {
      const double wall_s =
          static_cast<double>(obs::now_ns() - run_t0_ns_) / 1e9;
      events_->emit(obs::EventType::kRunEnd, [&](obs::JsonWriter& w) {
        w.member("wall_s", wall_s).member("status", "ok");
      });
      obs::set_events(nullptr);
      const std::uint64_t n = events_->events_written();
      events_.reset();  // flush + close
      if (!events_path_.empty())
        std::printf("wrote %llu event(s) to %s\n",
                    static_cast<unsigned long long>(n),
                    events_path_.c_str());
    }
    if (!profile_path_.empty()) {
      obs::Tracer::global().stop();
      const auto spans = obs::Tracer::global().spans();
      const std::uint64_t dropped = obs::Tracer::global().dropped();
      if (dropped > 0)
        std::fprintf(stderr,
                     "warning: %llu span(s) dropped (ring wrap); the trace "
                     "keeps the most recent window\n",
                     static_cast<unsigned long long>(dropped));
      std::ofstream out = obs::open_output_file(profile_path_);
      const auto names = obs::thread_names();
      obs::write_chrome_trace(out, spans, obs::Tracer::global().epoch_ns(),
                              names, dropped, &manifest_);
      if (!out)
        throw std::runtime_error("cannot write profile json: " +
                                 profile_path_);
      std::printf("wrote %zu span(s), %zu named thread(s) to %s\n",
                  spans.size(), names.size(), profile_path_.c_str());
    }
    if (!metrics_path_.empty() || !run_dir_.empty()) {
      obs::set_enabled(false);
      const auto snapshot = obs::Registry::global().snapshot();
      std::vector<std::string> paths;
      if (!metrics_path_.empty()) paths.push_back(metrics_path_);
      if (!run_dir_.empty()) {
        const std::string run_metrics = run_dir_ + "/metrics.json";
        if (metrics_path_.empty() ||
            std::filesystem::path(metrics_path_) !=
                std::filesystem::path(run_metrics))
          paths.push_back(run_metrics);
      }
      for (const std::string& path : paths) {
        std::ofstream out = obs::open_output_file(path);
        obs::write_metrics_json(out, snapshot, &manifest_);
        if (!out)
          throw std::runtime_error("cannot write metrics json: " + path);
        std::printf("wrote metrics to %s\n", path.c_str());
      }
    }
  }

 private:
  std::string metrics_path_;
  std::string events_path_;
  std::string profile_path_;
  std::string run_dir_;
  std::string serve_spec_;
  std::uint64_t ready_stale_ms_ = 30000;
  obs::HttpServer::StatusFn status_fn_;
  obs::RunManifest manifest_;
  /// manifest_.inputs entries that add_input(path) left for start().
  std::vector<std::size_t> unhashed_;
  std::unique_ptr<obs::EventLog> events_;
  std::uint64_t run_t0_ns_ = 0;
  // Declared last: destroyed first, so the serving thread joins before
  // the manifest and event log it reads go away.
  obs::HttpServer server_;
};

// ---- shared run steps -------------------------------------------------------

// --threads and --simd set process-wide state; verdicts are bit-identical
// at any setting (DESIGN.md §8, §13). Runs before the ObsSession, whose
// manifest records the thread count and tier.
void apply_run_settings(const Args& args) {
  par::set_threads(args.get("threads", std::size_t{0}));
  if (const std::string tier = args.text("simd");
      !tier.empty() && !ts::simd::set_active_tier(*ts::simd::parse_tier(tier)))
    throw std::runtime_error("--simd " + tier +
                             " is not supported on this host/build (" +
                             ts::simd::describe() + ")");
}

// The sampling flags of assess, batch and monitor. --adaptive-sampling on
// stops the robustness iterations early (DESIGN.md §16) once the verdict
// is stable; off (default) preserves pre-adaptive output bit-for-bit. The
// manifest records both flags, and diff-runs gates when the adaptive mode
// differs across runs.
void read_sampling_flags(const Args& args,
                         core::SpatialRegressionParams& params) {
  params.seed = args.get("seed", params.seed);
  if (args.has("adaptive-sampling"))
    params.adaptive_sampling = args.text("adaptive-sampling") == "on";
}

net::Topology load_topology(const std::string& path, ObsSession& session) {
  std::ifstream in = io::open_input_stream(path);
  net::Topology topo = io::load_topology_csv(in);
  session.add_input(path);
  return topo;
}

// The series of assess, batch and monitor, behind one provider, and how
// they arrived. `batch --series-snap` maps the snapshot in place (the
// million-element path: series stay on shared read-only pages). A
// --series CSV goes through the ingest layer: parsed into the heap store,
// or, on a --snapshot-cache hit (DESIGN.md §11), mapped from the cache.
// Every path gives bit-identical windows. Provenance: the manifest
// records the source's identity, the same whether its bytes were parsed
// or a snapshot served them, plus a note on which path ran.
io::IngestResult load_series(const Args& args, ObsSession& session) {
  if (args.has("series-snap")) {
    const std::string path = args.text("series-snap");
    std::string why;
    std::unique_ptr<const io::MappedStore> mapped =
        io::MappedStore::open(path, &why);
    if (!mapped)
      throw std::runtime_error("cannot map snapshot " + path + ": " + why);
    session.add_input(path);
    session.note("ingest.series", "mapped-snapshot", kInfo);
    std::printf("mapped %zu series (%.1f MiB) from %s in %.0f ms\n",
                mapped->size(),
                static_cast<double>(mapped->bytes_mapped()) / (1 << 20),
                path.c_str(), mapped->open_stats().seconds * 1e3);
    return {io::SeriesSource(std::move(mapped)), {}};  // nothing ingested
  }
  const std::string path = args.text("series");
  io::IngestOptions opts;
  opts.snapshot_dir = args.text("snapshot-cache");
  io::IngestResult in = io::ingest_series_file(path, opts);
  session.add_input(path, in.report.bytes, in.report.fingerprint);
  session.note("ingest.series", in.report.from_snapshot ? "snapshot" : "csv",
               kInfo);
  return in;
}

// --select mode -> control predicate, shared by assess/monitor/batch. The
// batch driver additionally gets a conservative equivalence-group key
// (BatchConfig::group_key) for each mode, so candidate enumeration scales
// with the group size instead of the network size: every element the
// predicate could accept shares the study element's key (the predicate
// still runs per candidate, so the key only has to be conservative).
struct SelectionMode {
  core::ControlPredicate predicate;
  std::function<std::uint64_t(const net::Topology&, net::ElementId)>
      group_key;
};

// `mode` is a checked --select value; "" (absent) selects by region.
SelectionMode make_selection_mode(const std::string& mode) {
  SelectionMode out;
  if (mode.empty() || mode == "region") {
    out.predicate =
        core::all_of({core::same_region(), core::same_technology()});
    out.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto& e = t.get(id);
      return static_cast<std::uint64_t>(e.region) * 8 +
             static_cast<std::uint64_t>(e.technology);
    };
  } else if (mode == "msc") {
    out.predicate =
        core::all_of({core::same_upstream(net::ElementKind::kMsc),
                      core::same_technology()});
    out.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto up = t.ancestor_of_kind(id, net::ElementKind::kMsc);
      const std::uint64_t msc = up ? up->value + 1ull : 0ull;
      return msc * 8 + static_cast<std::uint64_t>(t.get(id).technology);
    };
  } else if (mode == "zip") {
    out.predicate = core::all_of({core::same_zip(), core::same_technology()});
    out.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto& e = t.get(id);
      return static_cast<std::uint64_t>(e.zip.value) * 8 +
             static_cast<std::uint64_t>(e.technology);
    };
  } else {
    throw std::runtime_error("unknown --select mode: " + mode);
  }
  return out;
}

// ---- commands ---------------------------------------------------------------

int export_demo(const Args& args) {
  const std::string& dir = args.positional[0];
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  net::Topology topo =
      net::build_small_region(net::Region::kNortheast, 20130209, 5, 6);
  const auto rncs = topo.of_kind(net::ElementKind::kRnc);

  sim::UpstreamEvent change;
  change.source = rncs[0];
  change.start_bin = 0;
  change.sigma_shift = +1.5;
  sim::KpiGenerator gen(topo, {.seed = 20130209});
  gen.add_factor(std::make_shared<sim::DiurnalLoadFactor>());
  gen.add_factor(std::make_shared<sim::FoliageFactor>());
  gen.add_factor(std::make_shared<sim::NetworkEventFactor>(
      topo, std::vector<sim::UpstreamEvent>{change}));

  {
    std::ofstream out(dir + "/topology.csv");
    if (!out) {
      std::fprintf(stderr, "cannot write %s/topology.csv\n", dir.c_str());
      return 1;
    }
    io::save_topology_csv(out, topo);
  }
  {
    std::ofstream out(dir + "/series.csv");
    for (const auto rnc : rncs) {
      for (const auto kpi_id : {kpi::KpiId::kVoiceRetainability,
                                kpi::KpiId::kDataRetainability}) {
        const ts::TimeSeries s =
            gen.kpi_series(rnc, kpi_id, -14 * 24, 28 * 24);
        io::save_series_csv(out, rnc, kpi_id, s);
      }
    }
  }
  {
    std::ofstream out(dir + "/changes.csv");
    chg::ChangeLog log;
    chg::ChangeRecord record;
    record.element = rncs[0];
    record.type = chg::ChangeType::kFeatureActivation;
    record.bin = 0;
    record.expectation = chg::Expectation::kImprovement;
    record.target_kpi = kpi::KpiId::kVoiceRetainability;
    record.parameter = "son=on";
    record.description = "demo feature activation";
    log.add(record);
    io::save_changes_csv(out, log);
  }
  std::printf("wrote %s/{topology,series,changes}.csv\n", dir.c_str());
  std::printf("try: litmus_cli assess --topology %s/topology.csv --series "
              "%s/series.csv --study %u --kpi voice_retainability "
              "--change-bin 0 --select msc\n",
              dir.c_str(), dir.c_str(), rncs[0].value);
  return 0;
}

int assess(const Args& args) {
  apply_run_settings(args);

  // The session opens before the loads so the ingest layer's counters and
  // throughput gauges land in --metrics-json.
  ObsSession obs_session("assess", args);

  const net::Topology topo = load_topology(args.text("topology"), obs_session);
  const io::IngestResult input = load_series(args, obs_session);
  std::printf("loaded %zu elements, %zu series (%llu rows, %s)\n",
              topo.size(), input.series.size(),
              static_cast<unsigned long long>(input.report.rows),
              input.report.from_snapshot ? "snapshot" : "csv");

  const std::vector<net::ElementId>& study = args.ids("study");
  const kpi::KpiId kpi_id = *kpi::parse_kpi(args.text("kpi"));
  const auto change_bin = args.get("change-bin", std::int64_t{0});

  core::AssessmentConfig cfg;
  cfg.before_bins = args.get("before-days", cfg.before_bins);
  cfg.after_bins = args.get("after-days", cfg.after_bins);
  read_sampling_flags(args, cfg.regression);
  core::Assessor assessor(topo, input.series.provider(), cfg);

  obs_session.set_seed(cfg.regression.seed);
  obs_session.start();
  const core::ChangeAssessment a =
      args.has("controls")
          ? assessor.assess(study, args.ids("controls"), kpi_id, change_bin)
          : assessor.assess_with_selection(
                study, make_selection_mode(args.text("select")).predicate,
                kpi_id, change_bin);

  std::printf("%s\n",
              core::format_assessment(a, topo, args.has("explain")).c_str());

  // Baselines, for context.
  const core::StudyOnlyAnalyzer so;
  const core::DiDAnalyzer did;
  std::printf("baseline reads (first study element):\n");
  const core::ElementWindows w =
      assessor.windows_for(study[0], a.control_group, kpi_id, change_bin);
  std::printf("  study-only: %s, DiD: %s\n",
              to_string(so.assess(w, kpi_id).verdict),
              to_string(did.assess(w, kpi_id).verdict));
  obs_session.finish();
  return 0;
}

int batch(const Args& args) {
  const bool snap = args.has("series-snap");
  if (snap && args.has("series"))
    throw std::runtime_error("--series and --series-snap are exclusive");
  if (!snap && !args.has("series"))
    throw std::runtime_error("missing --series");
  apply_run_settings(args);

  ObsSession obs_session("batch", args);

  const net::Topology topo = load_topology(args.text("topology"), obs_session);
  const io::IngestResult input = load_series(args, obs_session);

  const std::string changes_path = args.text("changes");
  std::ifstream changes_in = io::open_input_stream(changes_path);
  chg::ChangeLog log;
  const std::size_t n = io::load_changes_csv(changes_in, log);
  obs_session.add_input(changes_path);
  std::printf("loaded %zu change record(s)\n", n);

  core::BatchConfig config;
  core::AssessmentConfig& assessment = config.assessment;
  assessment.before_bins = args.get("before-bins", assessment.before_bins);
  assessment.after_bins = args.get("after-bins", assessment.after_bins);
  assessment.regression.n_iterations =
      args.get("iterations", assessment.regression.n_iterations);
  read_sampling_flags(args, assessment.regression);
  if (args.has("select")) {
    SelectionMode mode = make_selection_mode(args.text("select"));
    config.predicate = std::move(mode.predicate);
    config.group_key = std::move(mode.group_key);
  }

  obs_session.set_seed(assessment.regression.seed);
  obs_session.start();

  const core::BatchReport report =
      core::assess_change_log(log, topo, input.series.provider(), config);
  std::printf("%s", core::format_batch_report(report, topo).c_str());
  obs_session.finish();
  return 0;
}

// gen-corpus: stream a large synthetic corpus (topology.csv, changes.csv,
// series.litmus-snap) to disk with bounded memory — the workload generator
// for the mapped-store scale path (DESIGN.md §15).
int gen_corpus(const Args& args) {
  const std::string& dir = args.positional[0];
  sim::ScaleCorpusConfig cfg;
  cfg.elements = args.get("elements", cfg.elements);
  cfg.cluster_size = args.get("cluster-size", cfg.cluster_size);
  cfg.change_stride = args.get("change-stride", cfg.change_stride);
  cfg.improve_stride = args.get("improve-stride", cfg.improve_stride);
  cfg.before_bins = args.get("before-bins", cfg.before_bins);
  cfg.after_bins = args.get("after-bins", cfg.after_bins);
  cfg.shift_sigma = args.get("shift-sigma", cfg.shift_sigma);
  cfg.seed = args.get("seed", cfg.seed);

  const std::uint64_t t0 = obs::now_ns();
  const sim::ScaleCorpusReport rep = sim::write_scale_corpus(dir, cfg);
  const double secs = static_cast<double>(obs::now_ns() - t0) / 1e9;
  std::printf("wrote %s: %zu elements (%zu NodeBs in %zu clusters), "
              "%zu change(s), %llu series (%.1f MiB payload) in %.1fs\n",
              dir.c_str(), rep.elements, rep.nodebs, rep.clusters,
              rep.changes, static_cast<unsigned long long>(rep.series),
              static_cast<double>(rep.snapshot_payload_bytes) / (1 << 20),
              secs);
  std::printf("try: litmus_cli batch --topology %s/topology.csv "
              "--series-snap %s/series.litmus-snap --changes %s/changes.csv "
              "--select zip --before-bins %zu --after-bins %zu\n",
              dir.c_str(), dir.c_str(), dir.c_str(), cfg.before_bins,
              cfg.after_bins);
  return 0;
}

// monitor: the paper's "confirm over multiple time-intervals" workflow as
// a long-running loop — replays stored bins through ChangeMonitor state
// machines at --step-hours granularity, printing each completed window.
// This is the daemon mode the live observability plane is built for:
// --serve exposes per-element monitor state on /status while the loop
// runs, --tick-ms slows the replay to wall-clock time, and --linger-ms
// keeps the plane up after the last heartbeat so /readyz demonstrably
// flips to 503 on staleness.
int monitor_cmd(const Args& args) {
  apply_run_settings(args);

  ObsSession obs_session("monitor", args);

  const net::Topology topo = load_topology(args.text("topology"), obs_session);
  const io::IngestResult input = load_series(args, obs_session);

  const std::vector<net::ElementId>& study = args.ids("study");
  const std::string kpi_name = args.text("kpi");
  const kpi::KpiId kpi_id = *kpi::parse_kpi(kpi_name);
  const auto change_bin = args.get("change-bin", std::int64_t{0});

  core::MonitorConfig mcfg;
  mcfg.before_bins = args.get("before-days", mcfg.before_bins);
  mcfg.window_bins = args.get("window-days", mcfg.window_bins);
  mcfg.step_bins = args.get("step-hours", mcfg.step_bins);
  mcfg.confirm_windows = args.get("confirm", mcfg.confirm_windows);
  read_sampling_flags(args, mcfg.regression);
  const auto tick_ms = args.get("tick-ms", std::uint64_t{0});
  const auto linger_ms = args.get("linger-ms", std::uint64_t{0});

  std::vector<net::ElementId> controls = args.ids("controls");
  if (!args.has("controls")) {
    const core::SelectionResult sel = core::select_control_group(
        topo, study, make_selection_mode(args.text("select")).predicate);
    if (!sel.meets_min_size)
      throw std::runtime_error(
          "control selection too small; pass --controls explicitly");
    controls = sel.controls;
    obs_session.note("monitor.controls_selected",
                     std::to_string(controls.size()), kResult);
  }

  // Data horizon: the last bin any study series reaches for this KPI.
  std::int64_t horizon = change_bin;
  for (const auto e : study)
    if (const auto end = input.series.end_bin(e, kpi_id))
      horizon = std::max(horizon, *end);
  if (horizon == change_bin)
    throw std::runtime_error("no stored series for the study/KPI pair");

  // Live monitor state shared with the /status handler (server thread).
  struct LiveRow {
    std::uint32_t element;
    const char* state;
    std::int64_t up_to;
    std::uint64_t windows;
  };
  const auto live_mu = std::make_shared<std::mutex>();
  const auto live = std::make_shared<std::vector<LiveRow>>();
  for (const auto e : study)
    live->push_back({e.value, core::to_string(core::MonitorState::kWarmup),
                     change_bin, 0});
  obs_session.set_status_fn([live_mu, live, kpi_name](obs::JsonWriter& w) {
    w.key("monitors").begin_array();
    const std::lock_guard<std::mutex> lock(*live_mu);
    for (const auto& row : *live) {
      w.begin_object();
      w.member("element", static_cast<std::uint64_t>(row.element))
          .member("kpi", kpi_name)
          .member("state", row.state)
          .member("up_to_bin", row.up_to)
          .member("windows", row.windows);
      w.end_object();
    }
    w.end_array();
  });

  obs_session.set_seed(mcfg.regression.seed);
  obs_session.start();

  std::vector<core::ChangeMonitor> monitors;
  monitors.reserve(study.size());
  for (const auto e : study)
    monitors.emplace_back(input.series.provider(), e, controls, kpi_id,
                          change_bin, mcfg);

  std::printf("monitoring %zu element(s) vs %zu control(s), "
              "bins %lld..%lld (step %zuh)\n",
              study.size(), controls.size(),
              static_cast<long long>(change_bin),
              static_cast<long long>(horizon), mcfg.step_bins);

  // Replay clock: a daemon waking up once per step, but over recorded
  // bins; --tick-ms stretches it toward real time for demos and CI.
  std::int64_t now_bin =
      change_bin + static_cast<std::int64_t>(mcfg.window_bins);
  while (true) {
    if (now_bin > horizon) now_bin = horizon;
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      const auto readings = monitors[i].advance(now_bin);
      for (const auto& r : readings)
        std::printf("bin %lld  element %u  verdict=%s  state=%s\n",
                    static_cast<long long>(r.up_to_bin), study[i].value,
                    to_string(r.outcome.verdict),
                    core::to_string(r.state));
      const std::lock_guard<std::mutex> lock(*live_mu);
      auto& row = (*live)[i];
      row.state = core::to_string(monitors[i].state());
      if (!readings.empty()) row.up_to = readings.back().up_to_bin;
      row.windows = monitors[i].history().size();
    }
    std::fflush(stdout);
    if (now_bin >= horizon) break;
    if (tick_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(tick_ms));
    now_bin += static_cast<std::int64_t>(mcfg.step_bins);
  }

  for (std::size_t i = 0; i < monitors.size(); ++i)
    std::printf("element %u final state: %s (%zu window(s))\n",
                study[i].value, core::to_string(monitors[i].state()),
                monitors[i].history().size());

  // Heartbeats have stopped; lingering keeps the plane answering so a
  // probe can watch /readyz flip to 503 once the watermark goes stale.
  if (linger_ms > 0 && obs_session.serving()) {
    std::printf("lingering %llu ms before shutdown\n",
                static_cast<unsigned long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }

  obs_session.finish();
  return 0;
}

// diff-runs: load two persisted run directories and report drift.
// Exit codes: 0 equivalent, 3 drift (errors throw -> 1).
int diff_runs_cmd(const Args& args) {
  obs::DiffThresholds thresholds;
  thresholds.max_verdict_flips =
      args.get("max-flips", thresholds.max_verdict_flips);
  thresholds.metric_rel_tolerance =
      args.get("metric-tolerance", thresholds.metric_rel_tolerance);
  thresholds.wall_rel_tolerance =
      args.get("wall-tolerance", thresholds.wall_rel_tolerance);
  thresholds.ignore_manifest = args.has("ignore-manifest");

  const obs::RunData a = obs::load_run_dir(args.positional[0]);
  const obs::RunData b = obs::load_run_dir(args.positional[1]);
  const obs::RunDiffReport report = obs::diff_runs(a, b, thresholds);
  std::printf("%s", obs::format_run_diff(report, a, b).c_str());
  return report.drift ? 3 : 0;
}

// profile: summarize a trace file (or a run directory holding one) into a
// per-stage table, no browser required.
int profile_cmd(const Args& args) {
  namespace fs = std::filesystem;
  const std::string& target = args.positional[0];
  std::string path = target;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    path += "/profile.json";
    if (!fs::exists(path, ec))
      throw std::runtime_error("no profile.json in directory: " + target);
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();

  std::string error;
  const auto doc = obs::parse_json(buf.str(), &error);
  if (!doc) throw std::runtime_error(path + ": " + error);
  const auto parsed = obs::parse_trace_events(*doc, &error);
  if (!parsed) throw std::runtime_error(path + ": " + error);

  const std::size_t top_n = args.get("top", std::size_t{10});
  std::printf("%s", path.c_str());
  if (const obs::JsonValue* other = doc->find("otherData")) {
    const auto dropped =
        static_cast<std::uint64_t>(other->member_number("dropped_spans", 0));
    if (dropped > 0)
      std::printf(" (%llu span(s) dropped at record time)",
                  static_cast<unsigned long long>(dropped));
  }
  std::printf("\n%s",
              obs::format_profile_report(
                  obs::summarize_trace(parsed->events, top_n))
                  .c_str());
  if (!parsed->thread_names.empty()) {
    std::printf("threads:\n");
    for (const auto& [tid, name] : parsed->thread_names)
      std::printf("  %3u  %s\n", tid, name.c_str());
  }
  return 0;
}

// ---- the command table ------------------------------------------------------

struct Command {
  std::string_view name;
  unsigned bit;
  std::size_t positional;  // arguments before the flags
  std::string_view args;   // their placeholders in usage()
  std::string_view help;
  int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"export-demo", kExportDemo, 1, "DIR",
     "write demo topology, series and change CSVs into DIR", export_demo},
    {"assess", kAssess, 0, "",
     "assess one change: per-element verdicts and the vote", assess},
    {"batch", kBatch, 0, "", "assess every record of a change log", batch},
    {"monitor", kMonitor, 0, "",
     "replay stored bins through the sliding-window monitors (DESIGN.md §12)",
     monitor_cmd},
    {"gen-corpus", kGenCorpus, 1, "DIR",
     "stream a zip-clustered synthetic corpus into DIR", gen_corpus},
    {"profile", kProfile, 1, "RUN_DIR|PROFILE.json",
     "summarize a Chrome trace as a p50/p99 stage table", profile_cmd},
    {"diff-runs", kDiffRuns, 2, "A_DIR B_DIR",
     "compare two persisted runs; exit 0 no drift, 3 drift, 1 error",
     diff_runs_cmd},
};

// Prints both tables to stderr; returns the exit code of a malformed
// command line.
int usage() {
  std::string out = "usage:\n";
  for (const Command& c : kCommands) {
    std::string line = "  litmus_cli " + std::string(c.name);
    const std::size_t indent = line.size();
    const auto add = [&](const std::string& word) {
      if (line.size() + 1 + word.size() > 79) {
        out += line + "\n";
        line.assign(indent, ' ');
      }
      line += " " + word;
    };
    if (!c.args.empty()) add(std::string(c.args));
    for (const Flag& f : kFlags) {
      if (!(f.commands & c.bit)) continue;
      std::string word = "--" + std::string(f.name);
      if (f.kind != Kind::kSwitch) word += " " + std::string(f.value);
      add(f.required & c.bit ? word : "[" + word + "]");
    }
    out += line + "\n      " + std::string(c.help) + "\n";
  }
  out += "  litmus_cli --version\n\nflags:\n";
  for (const Flag& f : kFlags) {
    std::string line = "  --" + std::string(f.name);
    if (f.kind != Kind::kSwitch) line += " " + std::string(f.value);
    line.resize(std::max<std::size_t>(line.size() + 2, 32), ' ');
    out += line + std::string(f.help) + "\n";
  }
  std::fputs(out.c_str(), stderr);
  return 2;
}

// Fills `out` from argv[2..]: the command's positional arguments, then
// --flag [value] pairs. A malformed command line or a flag the command
// does not take prints usage() and returns its exit code. Every value is
// then checked against its row, and the required flags and the
// study/controls overlap after it, so a bad setting throws before any
// input is opened.
int parse_flags(int argc, char** argv, const Command& cmd, Args& out) {
  int i = 2;
  for (; i < argc && out.positional.size() < cmd.positional; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) break;
    out.positional.emplace_back(argv[i]);
  }
  if (out.positional.size() < cmd.positional) {
    std::fprintf(stderr, "%s needs %s\n", argv[1],
                 std::string(cmd.args).c_str());
    return usage();
  }
  std::vector<std::pair<const Flag*, std::string>> given;
  while (i < argc) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return usage();
    }
    const Flag* flag = find_flag(argv[i] + 2);
    if (flag == nullptr || !(flag->commands & cmd.bit)) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return usage();
    }
    const bool valued = flag->kind != Kind::kSwitch;
    if (valued && i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return usage();
    }
    given.emplace_back(flag, valued ? argv[i + 1] : "1");
    i += valued ? 2 : 1;
  }

  for (auto& [flag, raw] : given) out.add(check_value(*flag, std::move(raw)));
  for (const Flag& f : kFlags)
    if ((f.required & cmd.bit) && !out.has(f.name))
      throw std::runtime_error("missing --" + std::string(f.name));
  // An element cannot be its own control.
  std::vector<net::ElementId> study = out.ids("study");
  std::ranges::sort(study);
  for (const net::ElementId id : out.ids("controls"))
    if (std::ranges::binary_search(study, id))
      throw std::runtime_error("bad --controls: " + out.text("controls") +
                               " (element " + std::to_string(id.value) +
                               " is also in --study)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  if (name == "--version" || name == "version") {
    std::printf("litmus_cli %s\n", obs::kLitmusVersion);
    std::printf("simd: %s\n", ts::simd::describe().c_str());
    return 0;
  }
  if (name == "--help" || name == "help") {
    usage();
    return 0;
  }
  const auto cmd = std::ranges::find(kCommands, name, &Command::name);
  if (cmd == std::end(kCommands)) {
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    return usage();
  }
  try {
    Args args;
    if (const int rc = parse_flags(argc, argv, *cmd, args); rc != 0) return rc;
    return cmd->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

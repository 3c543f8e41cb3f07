// Structured JSONL event log: the durable, append-only record of what a
// run did, one JSON object per line so `tail -f` and line-oriented tools
// work on a live run.
//
//   {"v":1,"seq":17,"t_us":84231,"span":9,"type":"kpi_verdict",...}
//
// Schema, versioned "v":1:
//   * v      — schema version of the line
//   * seq    — per-log monotonic sequence number, gapless in file order
//   * t_us   — microseconds since the log was opened (steady clock)
//   * span   — obs::current_span_id() at emission (omitted when 0), so an
//              event correlates with the --profile-json timeline
//   * type   — run_start | heartbeat | element_assessed | kpi_verdict |
//              iteration_retry | fallback_qr | adaptive_stop | run_end
//   plus per-type fields appended by the emitter (run_start embeds the
//   RunManifest; run_end carries wall_s and status).
//
// Concurrency: a single mutex orders seq assignment and buffer appends, so
// lines are never torn and seq is monotonic in file order even when worker
// threads emit concurrently. Writes are batched in a memory buffer and
// flushed when it grows past a threshold — and eagerly on run_start,
// heartbeat and run_end so a watcher always sees signs of life.
//
// Emission sites guard with `if (auto* ev = obs::events())`, one relaxed
// atomic load when no --events-jsonl was requested; events are emitted at
// element/chunk granularity, never per sampling iteration.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace litmus::obs {

class JsonWriter;

enum class EventType : std::uint8_t {
  kRunStart,
  kHeartbeat,
  kElementAssessed,
  kKpiVerdict,
  kIterationRetry,
  kFallbackQr,
  kAdaptiveStop,
  kRunEnd,
};

const char* to_string(EventType t) noexcept;

/// A page of recent events from the in-memory ring (the /events?since=SEQ
/// endpoint's payload). `lines` are complete JSON objects (no trailing
/// newline), ascending by seq starting at `first_seq`; `next_seq` is the
/// cursor to pass as `since` on the next call; `dropped` counts events
/// that have already fallen out of the ring since the log opened.
struct EventTail {
  std::uint64_t first_seq = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t dropped = 0;
  std::vector<std::string> lines;
};

/// The furthest progress EventLog::progress saw for its latest (stage,
/// total), throttled lines included, for /status. total == 0: none yet.
struct ProgressSnapshot {
  std::string stage;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
};

class EventLog {
 public:
  static constexpr int kSchemaVersion = 1;
  /// Events retained in memory for tail(); older ones count as dropped.
  static constexpr std::size_t kRingCapacity = 512;

  /// Ring-only log: events are retained in memory for tail() but never
  /// written anywhere. --serve without --events-jsonl uses this so the
  /// /events endpoint works without touching disk.
  EventLog();

  /// Logs into a borrowed stream (tests, in-memory use).
  explicit EventLog(std::ostream& out);

  /// Opens `path` via open_output_file (creates parent directories,
  /// rotates an existing file with a warning). Throws when unwritable.
  static std::unique_ptr<EventLog> open(const std::string& path);

  ~EventLog();  ///< flushes whatever is buffered

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one event line; `extra` (may be empty) adds the per-type
  /// fields to the open JSON object. Thread-safe.
  using FieldFn = std::function<void(JsonWriter&)>;
  void emit(EventType type, const FieldFn& extra = {});

  /// Heartbeat helper for long fan-outs: emits a `heartbeat` event
  /// carrying {stage, done, total} when `done` is a multiple of `every`
  /// or the work just finished (done == total). Callers report their own
  /// completion counter; emission granularity stays O(total / every).
  /// `extra` (may be empty) appends caller fields — e.g. adaptive
  /// sampling's running totals — and is only invoked on lines that
  /// actually emit.
  void progress(std::string_view stage, std::uint64_t done,
                std::uint64_t total, std::uint64_t every = 16,
                const FieldFn& extra = {});

  void flush();
  std::uint64_t events_written() const noexcept;

  /// Events with seq >= since, oldest first, at most max_lines. Thread-
  /// safe; non-consuming (the same page can be read twice).
  EventTail tail(std::uint64_t since = 0, std::size_t max_lines = 256) const;

  /// Events no longer retained by the ring.
  std::uint64_t ring_dropped() const noexcept;

  ProgressSnapshot last_progress() const;

 private:
  void flush_locked();

  static constexpr std::size_t kFlushBytes = 16 * 1024;

  std::unique_ptr<std::ofstream> owned_;  ///< null when stream is borrowed
  std::ostream* out_;  ///< null for a ring-only log
  std::uint64_t epoch_ns_;
  mutable std::mutex mu_;
  std::string buffer_;
  std::uint64_t seq_ = 0;
  std::deque<std::pair<std::uint64_t, std::string>> ring_;  ///< (seq, line)
  std::uint64_t ring_dropped_ = 0;
  ProgressSnapshot progress_;
};

/// Process-global event log the pipeline instrumentation emits into;
/// nullptr (the default) disables emission. The pointer is borrowed — the
/// owner (e.g. litmus_cli's ObsSession) must clear it before destroying
/// the log.
EventLog* events() noexcept;
void set_events(EventLog* log) noexcept;

/// Liveness watermark for /readyz: the steady-clock time of the most
/// recent sign of life. Touched by every run_start/heartbeat emission and
/// every EventLog::progress call (throttled lines included), and directly
/// by long-running loops that want liveness without an event line.
/// 0 means "never".
void touch_heartbeat() noexcept;
std::uint64_t last_heartbeat_ns() noexcept;

/// Resident set size of the calling process in bytes, from
/// /proc/self/statm; 0 where unsupported. Cheap enough for heartbeats.
std::uint64_t rss_bytes() noexcept;

}  // namespace litmus::obs
